#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "util/json.hpp"

namespace aa::core {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> tmp_leftovers(const fs::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") out.push_back(entry.path().string());
  }
  return out;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("aa_campaign_" + name);
  fs::remove_all(dir);
  return dir;
}

CampaignConfig two_cell_config(const std::string& out_dir) {
  CampaignConfig cfg;
  cfg.name = "resume";
  cfg.model = CampaignModel::kWindow;
  cfg.n = {8};
  cfg.t = {1};
  cfg.protocols = {"reset"};
  cfg.thresholds = {"default"};
  cfg.memory_k = {0};
  cfg.adversaries = {"fair", "random"};
  cfg.trials = 6;
  cfg.budget = 300;
  cfg.seed = 4242;
  cfg.threads = 1;
  cfg.chunk_size = 2;
  cfg.output_dir = out_dir;
  return cfg;
}

TEST(CampaignResume, WritesArtifactsAtomicallyWithNoTmpLeftovers) {
  const fs::path dir = fresh_dir("atomic");
  const CampaignConfig cfg = two_cell_config(dir.string());
  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 2u);
  for (const CampaignCell& cell : result.cells) {
    const fs::path p =
        dir / ("resume_cell_" + std::to_string(cell.index) + ".json");
    ASSERT_TRUE(fs::is_regular_file(p)) << p;
    EXPECT_EQ(read_file(p), campaign_cell_json(cfg, cell));
  }
  EXPECT_EQ(read_file(dir / "resume_summary.json"),
            campaign_summary_json(result));
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, ResumedSummaryByteIdenticalAfterPartialKill) {
  // Simulate a SIGKILL mid-sweep: keep cell 0's artifact, lose cell 1's and
  // the summary. The resumed run must restore cell 0 (no recompute) and
  // produce byte-identical cells and summary — at 1 and 8 threads.
  const fs::path dir = fresh_dir("kill");
  CampaignConfig cfg = two_cell_config(dir.string());
  const CampaignResult full = run_campaign(cfg);
  const std::string want_summary = read_file(dir / "resume_summary.json");
  const std::string want_cell0 = read_file(dir / "resume_cell_0.json");
  const std::string want_cell1 = read_file(dir / "resume_cell_1.json");

  for (const int threads : {1, 8}) {
    fs::remove(dir / "resume_cell_1.json");
    fs::remove(dir / "resume_summary.json");
    cfg.threads = threads;
    cfg.resume = true;
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_TRUE(resumed.cells[0].resumed) << "threads " << threads;
    EXPECT_FALSE(resumed.cells[1].resumed) << "threads " << threads;
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary)
        << "threads " << threads;
    EXPECT_EQ(read_file(dir / "resume_cell_0.json"), want_cell0);
    EXPECT_EQ(read_file(dir / "resume_cell_1.json"), want_cell1);
    EXPECT_EQ(campaign_summary_json(resumed), want_summary);
  }
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, CorruptOrTruncatedArtifactIsRecomputed) {
  const fs::path dir = fresh_dir("corrupt");
  CampaignConfig cfg = two_cell_config(dir.string());
  (void)run_campaign(cfg);
  const std::string want_summary = read_file(dir / "resume_summary.json");
  const std::string want_cell0 = read_file(dir / "resume_cell_0.json");

  // Truncate cell 0 mid-array and scribble over cell 1 entirely.
  {
    std::ofstream out(dir / "resume_cell_0.json", std::ios::binary);
    out << want_cell0.substr(0, want_cell0.find("\"decided_runs\""));
  }
  {
    std::ofstream out(dir / "resume_cell_1.json", std::ios::binary);
    out << "not json at all";
  }
  fs::remove(dir / "resume_summary.json");

  cfg.resume = true;
  const CampaignResult resumed = run_campaign(cfg);
  EXPECT_FALSE(resumed.cells[0].resumed);
  EXPECT_FALSE(resumed.cells[1].resumed);
  EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
  EXPECT_EQ(read_file(dir / "resume_cell_0.json"), want_cell0);
  fs::remove_all(dir);
}

TEST(CampaignResume, ViolatingSeedsAbove2To53ResumeByteIdentically) {
  // Trial seeds span the whole uint64 range. An integer read back through a
  // double would round 2^53 + 1 to 2^53, and the re-serialization check
  // would then reject the artifact. Plant violations at seeds above 2^53
  // (and, in the second pass, above INT64_MAX) and resume the cell.
  const fs::path dir = fresh_dir("bigseed");
  for (const std::uint64_t base :
       {(std::uint64_t{1} << 53) + 1, (std::uint64_t{1} << 63) + 1}) {
    fs::remove_all(dir);
    CampaignConfig cfg = two_cell_config(dir.string());
    cfg.adversaries = {"fair"};
    cfg.seed = base;
    const CampaignResult fresh = run_campaign(cfg);
    ASSERT_EQ(fresh.cells.size(), 1u);

    const std::vector<std::uint64_t> seeds = {base, base + 4};
    const MeasureOneReport& rep = fresh.cells[0].report;
    MeasureOneAccumulator acc;
    acc.restore(rep.trials, 2, 0, rep.decided_runs, rep.all_decided_runs,
                fresh.cells[0].metric_sum, seeds);
    CampaignCell planted = fresh.cells[0];
    planted.report = acc.finalize();
    const std::string planted_json = campaign_cell_json(cfg, planted);
    ASSERT_TRUE(util::write_file_atomic((dir / "resume_cell_0.json").string(),
                                        planted_json));
    fs::remove(dir / "resume_summary.json");

    cfg.resume = true;
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_TRUE(resumed.cells[0].resumed) << base;
    EXPECT_EQ(resumed.cells[0].report.violating_seeds, seeds);
    EXPECT_EQ(resumed.summary.violating_seeds, seeds);
    EXPECT_EQ(read_file(dir / "resume_cell_0.json"), planted_json);
    EXPECT_NE(planted_json.find(std::to_string(base + 4)), std::string::npos)
        << planted_json;
  }
  fs::remove_all(dir);
}

TEST(CampaignResume, StaleArtifactFromOtherConfigIsRejected) {
  // A valid artifact computed under a DIFFERENT seed must not be resumed:
  // its identity fields no longer re-serialize to the same bytes.
  const fs::path dir = fresh_dir("stale");
  CampaignConfig cfg = two_cell_config(dir.string());
  (void)run_campaign(cfg);
  const std::string fresh_summary = read_file(dir / "resume_summary.json");

  cfg.seed = 777;  // artifacts on disk are for seed 4242
  cfg.resume = true;
  const CampaignResult resumed = run_campaign(cfg);
  EXPECT_FALSE(resumed.cells[0].resumed);
  EXPECT_FALSE(resumed.cells[1].resumed);
  EXPECT_NE(read_file(dir / "resume_summary.json"), fresh_summary);
  fs::remove_all(dir);
}

TEST(CampaignResume, LensSidecarValidatedOnResume) {
  // With the lens armed, a cell artifact that restores byte-identically is
  // NOT enough: the lens numbers live only in the <name>_cell_<i>_lens.json
  // sidecar and cannot be rebuilt from the cell tallies. A missing,
  // truncated, or stale sidecar must force a recompute (which rewrites the
  // sidecar), never a silent resume with wrong lens numbers.
  const fs::path dir = fresh_dir("lens");
  CampaignConfig cfg = two_cell_config(dir.string());
  cfg.lens = true;
  (void)run_campaign(cfg);
  const std::string want_summary = read_file(dir / "resume_summary.json");
  const std::string want_lens0 = read_file(dir / "resume_cell_0_lens.json");
  const std::string want_lens1 = read_file(dir / "resume_cell_1_lens.json");

  // Control: intact sidecars resume both cells, everything byte-identical.
  cfg.resume = true;
  {
    fs::remove(dir / "resume_summary.json");
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_TRUE(resumed.cells[0].resumed);
    EXPECT_TRUE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
  }

  // Missing sidecar for cell 0, truncated sidecar for cell 1 (SIGKILL
  // between the two atomic writes / a torn copy): both recompute, both
  // sidecars come back byte-identical.
  {
    fs::remove(dir / "resume_cell_0_lens.json");
    std::ofstream out(dir / "resume_cell_1_lens.json", std::ios::binary);
    out << want_lens1.substr(0, want_lens1.find("\"senders\""));
  }
  {
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_FALSE(resumed.cells[0].resumed);
    EXPECT_FALSE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
    EXPECT_EQ(read_file(dir / "resume_cell_1_lens.json"), want_lens1);
    EXPECT_EQ(read_file(dir / "resume_summary.json"), want_summary);
  }

  // Stale sidecar: structurally complete JSON from a foreign run whose
  // identity fields (n, trials) don't match this cell. Must recompute.
  {
    std::ofstream out(dir / "resume_cell_0_lens.json", std::ios::binary);
    out << "{\n  \"n\": 4,\n  \"t\": 1,\n  \"trials\": 99,\n"
           "  \"senders\": [\n  ]\n}\n";
  }
  {
    const CampaignResult resumed = run_campaign(cfg);
    EXPECT_FALSE(resumed.cells[0].resumed);
    EXPECT_TRUE(resumed.cells[1].resumed);
    EXPECT_EQ(read_file(dir / "resume_cell_0_lens.json"), want_lens0);
  }
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

TEST(CampaignResume, LensOffResumeIgnoresSidecars) {
  // Without the lens there is no sidecar contract: resume must not demand
  // one (and must not be confused by a stray lens file from an older
  // lens-armed run of the same name).
  const fs::path dir = fresh_dir("lensoff");
  CampaignConfig cfg = two_cell_config(dir.string());
  (void)run_campaign(cfg);
  {
    std::ofstream out(dir / "resume_cell_0_lens.json", std::ios::binary);
    out << "stray";
  }
  fs::remove(dir / "resume_summary.json");
  cfg.resume = true;
  const CampaignResult resumed = run_campaign(cfg);
  EXPECT_TRUE(resumed.cells[0].resumed);
  EXPECT_TRUE(resumed.cells[1].resumed);
  fs::remove_all(dir);
}

TEST(CampaignResume, CellTimeoutMarksFailedAndSummarySkipsIt) {
  // One cell whose trials cannot finish inside the watchdog deadline:
  // split-keeper against split inputs keeps the run undecided, so every
  // trial burns the whole 5000-window budget — far beyond 1 ms.
  const fs::path dir = fresh_dir("timeout");
  CampaignConfig cfg;
  cfg.name = "slow";
  cfg.model = CampaignModel::kWindow;
  cfg.n = {16};
  cfg.t = {2};
  cfg.protocols = {"reset"};
  cfg.thresholds = {"default"};
  cfg.memory_k = {0};
  cfg.adversaries = {"split-keeper"};
  cfg.trials = 8;
  cfg.budget = 5000;
  cfg.seed = 1;
  cfg.threads = 1;
  cfg.chunk_size = 1;
  cfg.output_dir = dir.string();
  cfg.cell_timeout_ms = 1;

  const CampaignResult result = run_campaign(cfg);
  ASSERT_EQ(result.cells.size(), 1u);
  EXPECT_TRUE(result.cells[0].failed);
  EXPECT_EQ(result.summary.trials, 0);  // failed cell excluded from merge
  // No artifact for the failed cell; the summary lists it.
  EXPECT_FALSE(fs::exists(dir / "slow_cell_0.json"));
  const std::string summary = read_file(dir / "slow_summary.json");
  EXPECT_NE(summary.find("\"cells_failed\": [0]"), std::string::npos)
      << summary;
  EXPECT_TRUE(tmp_leftovers(dir).empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace aa::core
