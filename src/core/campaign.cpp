#include "core/campaign.hpp"

#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "adversary/async_adversaries.hpp"
#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/checker.hpp"
#include "lens/accountability.hpp"
#include "util/check.hpp"
#include "util/json.hpp"

namespace aa::core {

WindowAdversaryFactory window_adversary_factory(const std::string& name,
                                                int t) {
  AA_REQUIRE(name == "fair" || name == "silencer" || name == "split-keeper" ||
                 name == "reset-storm" || name == "random",
             "unknown window adversary '" + name +
                 "' (want fair|silencer|split-keeper|reset-storm|random)");
  return [name, t](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
    if (name == "fair") {
      return std::make_unique<adversary::FairWindowAdversary>();
    }
    if (name == "silencer") {
      std::vector<sim::ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(i);
      return std::make_unique<adversary::SilencerWindowAdversary>(silenced);
    }
    if (name == "split-keeper") {
      return std::make_unique<adversary::SplitKeeperAdversary>();
    }
    if (name == "reset-storm") {
      return std::make_unique<adversary::ResetStormAdversary>(
          t, Rng(seed * 7 + 1));
    }
    return std::make_unique<adversary::RandomWindowAdversary>(
        t, 0.1, Rng(seed * 9 + 2));
  };
}

AsyncAdversaryFactory async_adversary_factory(const std::string& name,
                                              int t) {
  AA_REQUIRE(name == "random-async" || name == "fixed-crash" ||
                 name == "async-split",
             "unknown async adversary '" + name +
                 "' (want random-async|fixed-crash|async-split)");
  return [name, t](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
    if (name == "random-async") {
      return std::make_unique<adversary::RandomAsyncScheduler>(
          Rng(seed * 3 + 1));
    }
    if (name == "fixed-crash") {
      std::vector<sim::ProcId> crash;
      for (int i = 0; i < t; ++i) crash.push_back(i);
      return std::make_unique<adversary::FixedCrashScheduler>(
          crash, Rng(seed * 5 + 3));
    }
    return std::make_unique<adversary::AsyncSplitKeeper>();
  };
}

namespace {

// ---------------------------------------------------------------- parsing

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::string item;
  std::stringstream ss(value);
  while (std::getline(ss, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

long long parse_int(const std::string& value, int line) {
  return parse_config_int(value,
                          "campaign config line " + std::to_string(line));
}

double parse_double(const std::string& value, int line) {
  std::size_t pos = 0;
  double v = 0.0;
  bool ok = true;
  try {
    v = std::stod(value, &pos);
  } catch (...) {
    ok = false;
  }
  AA_REQUIRE(ok && pos == value.size(),
             "campaign config line " + std::to_string(line) +
                 ": expected a number, got '" + value + "'");
  return v;
}

bool parse_bool(const std::string& value, int line) {
  if (value == "true" || value == "1") return true;
  if (value == "false" || value == "0") return false;
  AA_REQUIRE(false, "campaign config line " + std::to_string(line) +
                        ": expected true or false, got '" + value + "'");
  return false;
}

std::vector<int> parse_int_list(const std::string& value, int line) {
  std::vector<int> out;
  for (const std::string& item : split_list(value)) {
    out.push_back(static_cast<int>(parse_int(item, line)));
  }
  AA_REQUIRE(!out.empty(), "campaign config line " + std::to_string(line) +
                               ": empty list");
  return out;
}

// ------------------------------------------------- axis-value resolution

protocols::ProtocolKind protocol_kind(const std::string& name) {
  if (name == "reset" || name == "reset-agreement") {
    return protocols::ProtocolKind::Reset;
  }
  if (name == "forgetful") return protocols::ProtocolKind::Forgetful;
  if (name == "benor" || name == "ben-or") return protocols::ProtocolKind::BenOr;
  if (name == "bracha") return protocols::ProtocolKind::Bracha;
  AA_REQUIRE(false, "campaign: unknown protocol '" + name +
                        "' (want reset|forgetful|benor|bracha)");
  return protocols::ProtocolKind::Reset;
}

std::optional<protocols::Thresholds> threshold_preset(const std::string& name,
                                                      int n, int t) {
  if (name == "default") return std::nullopt;
  if (name == "canonical") return protocols::canonical_thresholds(n, t);
  if (name == "relaxed") {
    return protocols::Thresholds{n - 2 * t, n / 2 + 1 + t, n / 2 + 1};
  }
  AA_REQUIRE(false, "campaign: unknown thresholds preset '" + name +
                        "' (want default|canonical|relaxed)");
  return std::nullopt;
}

/// Chaos presets for the `chaos_plan` sweep axis. "none" resolves to the
/// config's own chaos knobs — the default axis value is exactly the
/// pre-axis behavior — and the named presets inherit the config's censor
/// target and chaos seed so `chaos_censor_target` / `chaos_seed` still
/// steer them.
sim::FaultPlan chaos_plan_preset(const CampaignConfig& config,
                                 const std::string& name) {
  if (name == "none") return config.chaos;
  sim::FaultPlan fp;
  fp.censor_target = config.chaos.censor_target;
  fp.chaos_seed = config.chaos.chaos_seed;
  if (name == "censor-light") {
    fp.censor_prob = 0.25;
  } else if (name == "censor-heavy") {
    fp.censor_prob = 0.9;
  } else if (name == "resets") {
    fp.reset_prob = 0.5;
  } else if (name == "crashy") {
    fp.crash_prob = 0.2;
    fp.crash_budget = 1;
  } else {
    AA_REQUIRE(false,
               "campaign: unknown chaos_plan preset '" + name +
                   "' (want none|censor-light|censor-heavy|resets|crashy)");
  }
  return fp;
}

/// The async censor's fairness bound: how many consecutive times the
/// starving scheduler may defer the target before it must let the inner
/// adversary's choice stand. Small enough that censored campaigns still
/// terminate, large enough that the target is demonstrably starved.
constexpr int kCampaignStarveBound = 8;

/// Cell factories with the chaos layer and (outermost) the targeted
/// censor applied. A disabled plan and no censor target return the plain
/// factory object itself — the zero-drift guarantee is structural, not
/// behavioral.
WindowAdversaryFactory cell_window_factory(const CampaignConfig& config,
                                           const sim::FaultPlan& fp,
                                           const std::string& name, int t) {
  WindowAdversaryFactory f = window_adversary_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::ChaosWindowAdversary>(inner(seed),
                                                               fp, seed);
    };
  }
  if (config.censor_target >= 0) {
    const sim::ProcId target = config.censor_target;
    f = [inner = std::move(f),
         target](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<adversary::TargetedCensorAdversary>(inner(seed),
                                                                  target);
    };
  }
  return f;
}

AsyncAdversaryFactory cell_async_factory(const CampaignConfig& config,
                                         const sim::FaultPlan& fp,
                                         const std::string& name, int t) {
  AsyncAdversaryFactory f = async_adversary_factory(name, t);
  if (fp.enabled()) {
    f = [inner = std::move(f),
         fp](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<adversary::ChaosAsyncScheduler>(inner(seed), fp,
                                                              seed);
    };
  }
  if (config.censor_target >= 0) {
    const sim::ProcId target = config.censor_target;
    f = [inner = std::move(f),
         target](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<adversary::StarvingAsyncScheduler>(
          inner(seed), target, kCampaignStarveBound);
    };
  }
  return f;
}

// ------------------------------------------------------------- artifacts

const char* model_name(CampaignModel model) {
  return model == CampaignModel::kWindow ? "window" : "async";
}

/// The report fields every cell and summary document ends with.
void add_report_fields(util::Json& doc, const MeasureOneReport& rep) {
  doc["trials"] = rep.trials;
  doc["agreement_violations"] = rep.agreement_violations;
  doc["validity_violations"] = rep.validity_violations;
  doc["decided_runs"] = rep.decided_runs;
  doc["all_decided_runs"] = rep.all_decided_runs;
  doc["mean_windows_to_first"] = rep.mean_windows_to_first;
  doc["mean_chain_at_decision"] = rep.mean_chain_at_decision;
  util::Json& seeds = doc["violating_seeds"] = util::Json::array();
  for (const std::uint64_t seed : rep.violating_seeds) seeds.push(seed);
}

/// <output_dir>/<name><suffix>: every artifact of a campaign.
std::string artifact_path(const CampaignConfig& config,
                          const std::string& suffix) {
  return (std::filesystem::path(config.output_dir) / (config.name + suffix))
      .string();
}

void write_artifact(const std::string& path, const std::string& body) {
  AA_REQUIRE(util::write_file_atomic(path, body),
             "campaign: cannot write " + path);
}

// ---------------------------------------------------------------- resume

/// Read and strictly parse a JSON artifact into `text` / `doc`. False when
/// the file is missing, empty, truncated or not JSON — the caller treats
/// the artifact as invalid and recomputes the cell.
bool read_artifact(const std::string& path, std::string& text,
                   std::optional<util::Json>& doc) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  text = ss.str();
  doc = util::Json::parse(text);
  return doc.has_value();
}

std::optional<std::int64_t> int_member(const util::Json& doc,
                                       std::string_view key) {
  const util::Json* v = doc.find(key);
  return v != nullptr ? v->as_int() : std::nullopt;
}

/// Structural validity check for a cell's lens sidecar. The lens report is
/// not resumable from its artifact (LatencyAccumulator has no restore), so
/// resume can only accept a cell whose sidecar is already complete and
/// belongs to THIS cell: the file must parse (a truncated write does not),
/// match the cell's (n, t) and the config's trial count, and carry one
/// senders row per process. Anything else forces a recompute, which
/// rewrites the sidecar before the cell artifact.
bool lens_sidecar_valid(const CampaignConfig& config, const CampaignCell& cell,
                        const std::string& lens_path) {
  std::string text;
  std::optional<util::Json> doc;
  if (!read_artifact(lens_path, text, doc)) return false;
  const util::Json* senders = doc->find("senders");
  return senders != nullptr && senders->kind() == util::Json::Kind::kArray &&
         senders->items().size() == static_cast<std::size_t>(cell.n) &&
         int_member(*doc, "n") == cell.n && int_member(*doc, "t") == cell.t &&
         int_member(*doc, "trials") == config.trials;
}

/// Restore `cell` from an existing artifact at `path`. The artifact is
/// accepted iff it parses, claims exactly config.trials trials, and — after
/// rebuilding the accumulator from its exact integer tallies — the cell
/// re-serializes to the SAME bytes (this cross-checks every identity field
/// against the current config, so stale or foreign artifacts are rejected
/// and recomputed). With the lens armed (`lens_path` non-empty) the cell's
/// lens sidecar must additionally pass lens_sidecar_valid — a byte-perfect
/// cell artifact with a missing, truncated, or foreign sidecar is NOT
/// resumable, because the lens numbers cannot be rebuilt from the cell
/// tallies alone. On success the tallies land in `acc_out` (the cell's
/// slot in the end-of-sweep index-order summary merge), making the resumed
/// summary byte-identical to an uninterrupted run's.
bool try_resume_cell(const CampaignConfig& config, CampaignCell& cell,
                     const std::string& path, const std::string& lens_path,
                     MeasureOneAccumulator& acc_out) {
  if (!lens_path.empty() && !lens_sidecar_valid(config, cell, lens_path)) {
    return false;
  }
  std::string text;
  std::optional<util::Json> doc;
  if (!read_artifact(path, text, doc)) return false;
  // The exact tallies, in MeasureOneAccumulator::restore's argument order.
  static constexpr const char* kTallies[] = {
      "trials",       "agreement_violations", "validity_violations",
      "decided_runs", "all_decided_runs",     "metric_sum"};
  std::int64_t tally[std::size(kTallies)] = {};
  for (std::size_t i = 0; i < std::size(kTallies); ++i) {
    const std::optional<std::int64_t> v = int_member(*doc, kTallies[i]);
    if (!v) return false;
    tally[i] = *v;
  }
  const util::Json* seeds_doc = doc->find("violating_seeds");
  if (tally[0] != config.trials || seeds_doc == nullptr ||
      seeds_doc->kind() != util::Json::Kind::kArray) {
    return false;
  }
  std::vector<std::uint64_t> seeds;
  for (const util::Json& seed : seeds_doc->items()) {
    const std::optional<std::uint64_t> v = seed.as_uint();
    if (!v) return false;
    seeds.push_back(*v);
  }

  MeasureOneAccumulator acc;
  acc.restore(tally[0], tally[1], tally[2], tally[3], tally[4], tally[5],
              seeds);
  cell.metric_sum = tally[5];
  cell.report = acc.finalize(config.model == CampaignModel::kAsync);
  if (campaign_cell_json(config, cell) != text) {
    cell.report = MeasureOneReport{};
    cell.metric_sum = 0;
    return false;
  }
  acc_out = std::move(acc);
  cell.resumed = true;
  return true;
}

}  // namespace

long long parse_config_int(const std::string& value, const std::string& where) {
  std::size_t pos = 0;
  long long v = 0;
  bool ok = true;
  try {
    v = std::stoll(value, &pos);
  } catch (...) {
    ok = false;
  }
  AA_REQUIRE(ok && pos == value.size(),
             where + ": expected an integer, got '" + value + "'");
  return v;
}

void validate_campaign_config(const CampaignConfig& cfg) {
  AA_REQUIRE(cfg.trials > 0, "campaign config: trials must be positive");
  AA_REQUIRE(cfg.budget > 0, "campaign config: budget must be positive");
  AA_REQUIRE(cfg.cell_timeout_ms >= 0,
             "campaign config: cell_timeout_ms must be non-negative");
  AA_REQUIRE(cfg.audit_every >= 0,
             "campaign config: audit_every must be non-negative");
  AA_REQUIRE(!cfg.n.empty() && !cfg.t.empty() && !cfg.protocols.empty() &&
                 !cfg.adversaries.empty() && !cfg.thresholds.empty() &&
                 !cfg.memory_k.empty() && !cfg.chaos_plan.empty(),
             "campaign config: every sweep axis needs at least one value");
  sim::validate_fault_plan(cfg.chaos);
  const bool default_plan =
      cfg.chaos_plan.size() == 1 && cfg.chaos_plan[0] == "none";
  AA_REQUIRE(default_plan || !cfg.chaos.enabled(),
             "campaign config: a chaos_plan axis and enabled chaos_* knobs "
             "are mutually exclusive (the presets would silently override "
             "the knobs)");
  for (const std::string& plan : cfg.chaos_plan) {
    // Rejects unknown preset names and validates each resolved plan.
    sim::validate_fault_plan(chaos_plan_preset(cfg, plan));
  }
  AA_REQUIRE(!cfg.parallel_cells || cfg.cell_timeout_ms == 0,
             "campaign config: parallel_cells and cell_timeout_ms are "
             "mutually exclusive (one watchdog token cannot bound "
             "concurrent cells)");
  if (cfg.censor_target >= 0) {
    for (const int n : cfg.n) {
      AA_REQUIRE(cfg.censor_target < n,
                 "campaign config: censor_target must be < every swept n");
    }
  }
}

CampaignConfig parse_campaign_config(const std::string& text) {
  CampaignConfig cfg;
  std::stringstream ss(text);
  std::string raw;
  int line = 0;
  std::map<std::string, int> seen;  // key -> first line, for duplicate errors
  while (std::getline(ss, raw)) {
    ++line;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string stripped = trim(raw);
    if (stripped.empty()) continue;
    const std::size_t eq = stripped.find('=');
    AA_REQUIRE(eq != std::string::npos,
               "campaign config line " + std::to_string(line) +
                   ": expected 'key = value', got '" + stripped + "'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    AA_REQUIRE(!key.empty() && !value.empty(),
               "campaign config line " + std::to_string(line) +
                   ": empty key or value");
    const auto [it, inserted] = seen.emplace(key, line);
    AA_REQUIRE(inserted, "campaign config line " + std::to_string(line) +
                             ": duplicate key '" + key + "' (first set on line " +
                             std::to_string(it->second) + ")");

    if (key == "name") {
      cfg.name = value;
    } else if (key == "model") {
      if (value == "window") cfg.model = CampaignModel::kWindow;
      else if (value == "async") cfg.model = CampaignModel::kAsync;
      else
        AA_REQUIRE(false, "campaign config line " + std::to_string(line) +
                              ": model must be window or async");
    } else if (key == "n") {
      cfg.n = parse_int_list(value, line);
    } else if (key == "t") {
      cfg.t = parse_int_list(value, line);
    } else if (key == "protocols") {
      cfg.protocols = split_list(value);
    } else if (key == "thresholds") {
      cfg.thresholds = split_list(value);
    } else if (key == "memory_k") {
      cfg.memory_k = parse_int_list(value, line);
    } else if (key == "adversaries") {
      cfg.adversaries = split_list(value);
    } else if (key == "chaos_plan") {
      cfg.chaos_plan = split_list(value);
    } else if (key == "lens") {
      cfg.lens = parse_bool(value, line);
    } else if (key == "censor_target") {
      cfg.censor_target = static_cast<int>(parse_int(value, line));
    } else if (key == "parallel_cells") {
      cfg.parallel_cells = parse_bool(value, line);
    } else if (key == "split") {
      cfg.split = parse_double(value, line);
    } else if (key == "trials") {
      cfg.trials = static_cast<int>(parse_int(value, line));
    } else if (key == "budget") {
      cfg.budget = parse_int(value, line);
    } else if (key == "seed") {
      cfg.seed = static_cast<std::uint64_t>(parse_int(value, line));
    } else if (key == "threads") {
      cfg.threads = static_cast<int>(parse_int(value, line));
    } else if (key == "chunk_size") {
      cfg.chunk_size = static_cast<int>(parse_int(value, line));
    } else if (key == "output_dir") {
      cfg.output_dir = value;
    } else if (key == "audit") {
      cfg.audit = parse_bool(value, line);
    } else if (key == "audit_every") {
      cfg.audit_every = static_cast<int>(parse_int(value, line));
    } else if (key == "resume") {
      cfg.resume = parse_bool(value, line);
    } else if (key == "cell_timeout_ms") {
      cfg.cell_timeout_ms = parse_int(value, line);
    } else if (key == "chaos_crash_prob") {
      cfg.chaos.crash_prob = parse_double(value, line);
    } else if (key == "chaos_crash_budget") {
      cfg.chaos.crash_budget = static_cast<int>(parse_int(value, line));
    } else if (key == "chaos_reset_prob") {
      cfg.chaos.reset_prob = parse_double(value, line);
    } else if (key == "chaos_censor_prob") {
      cfg.chaos.censor_prob = parse_double(value, line);
    } else if (key == "chaos_censor_target") {
      cfg.chaos.censor_target =
          static_cast<sim::ProcId>(parse_int(value, line));
    } else if (key == "chaos_duplicate_prob") {
      cfg.chaos.duplicate_row_prob = parse_double(value, line);
    } else if (key == "chaos_degenerate_prob") {
      cfg.chaos.degenerate_prob = parse_double(value, line);
    } else if (key == "chaos_seed") {
      cfg.chaos.chaos_seed = static_cast<std::uint64_t>(parse_int(value, line));
    } else {
      AA_REQUIRE(false, "campaign config line " + std::to_string(line) +
                            ": unknown key '" + key + "'");
    }
  }
  validate_campaign_config(cfg);
  return cfg;
}

CampaignConfig load_campaign_config(const std::string& path) {
  std::ifstream in(path);
  AA_REQUIRE(in.good(), "campaign: cannot read config file '" + path + "'");
  std::stringstream ss;
  ss << in.rdbuf();
  return parse_campaign_config(ss.str());
}

namespace {

/// One enumerated sweep cell awaiting compute (or restored by resume):
/// the cell's coordinates and spec, its resolved chaos preset, its output
/// paths, and its private accumulator slot for the index-order summary
/// merge. Slots make the merge order a function of the config alone, so
/// the sequential and parallel-cells schedules produce the same summary
/// bytes.
struct CellWork {
  CampaignCell cell;
  Experiment spec;
  sim::FaultPlan chaos;
  std::string path;       ///< cell artifact ("" = not writing)
  std::string lens_path;  ///< lens artifact ("" = not writing or no lens)
  MeasureOneAccumulator acc;
  bool done = false;
};

/// Run one cell's trials on the calling thread's chunk engine and fill its
/// slot. `inline_trials` is set on the parallel-cells path, where the cell
/// IS the pool job and must not re-shard onto the pool it occupies — chunk
/// boundaries depend only on (trials, chunk_size), so the report bytes are
/// unchanged. Returns false iff the check came back partial (cancelled).
bool compute_cell(const CampaignConfig& config, CampaignContext& ctx,
                  CellWork& w, bool inline_trials) {
  MeasureOneAccumulator acc;
  lens::LatencyAccumulator lat;
  lens::LatencyAccumulator* lat_ptr = config.lens ? &lat : nullptr;
  MeasureOneReport rep;
  if (config.model == CampaignModel::kWindow) {
    rep = check_measure_one_window(
        w.spec,
        cell_window_factory(config, w.chaos, w.cell.adversary, w.cell.t),
        config.trials, w.cell.seed0, ctx, &acc, lat_ptr, inline_trials);
  } else {
    rep = check_measure_one_async(
        w.spec,
        cell_async_factory(config, w.chaos, w.cell.adversary, w.cell.t),
        config.trials, w.cell.seed0, ctx, &acc, lat_ptr, inline_trials);
  }
  if (rep.trials != config.trials) return false;  // cancelled mid-cell
  // The report is the accumulator's finalize() (identical fresh vs
  // resumed); persist the integer metric sum so --resume can rebuild it.
  w.acc = std::move(acc);
  w.cell.metric_sum = w.acc.metric_sum();
  w.cell.report = std::move(rep);
  if (config.lens) {
    w.cell.lens_report = lat.finalize(w.cell.t);
    // Lens artifact FIRST: resume keys on the cell artifact, so a cell
    // artifact on disk implies its lens sidecar landed too.
    if (!w.lens_path.empty()) {
      write_artifact(w.lens_path, latency_report_json(w.cell.lens_report));
    }
  }
  if (!w.path.empty()) {
    write_artifact(w.path, campaign_cell_json(config, w.cell));
  }
  return true;
}

/// Run `work` (a resume attempt or a compute; returns whether the cell is
/// done) under a stopwatch. The cell's wall_ms and, once done, its
/// trials_per_s feed only the timing sidecar (campaign_timing_json).
template <class Work>
bool timed_cell(CellWork& w, int trials, Work&& work) {
  // aa-lint: clock-ok(throughput metric, sidecar-only output)
  const auto t0 = std::chrono::steady_clock::now();
  const bool done = work();
  // aa-lint: clock-ok(throughput metric, sidecar-only output)
  const auto t1 = std::chrono::steady_clock::now();
  w.cell.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (done && w.cell.wall_ms > 0.0) {
    w.cell.trials_per_s = static_cast<double>(trials) * 1000.0 / w.cell.wall_ms;
  }
  return done;
}

}  // namespace

CampaignResult run_campaign(const CampaignConfig& config,
                            CampaignContext& ctx) {
  namespace fs = std::filesystem;
  // Re-checked here (not just in the parser): CLI overrides and
  // programmatic configs change fields after parsing.
  validate_campaign_config(config);
  CampaignResult result;
  result.config = config;

  const bool writing = !config.output_dir.empty();
  if (writing) fs::create_directories(config.output_dir);

  // Phase 1 — enumerate the sweep serially into canonical-order slots:
  // outermost n, innermost chaos_plan. The per-cell seed block
  // [seed + index*trials, ...) depends only on the config, so cell
  // identities — and every report — are thread-count-independent.
  std::vector<CellWork> work;
  int index = 0;
  for (const int n : config.n) {
    for (const int t : config.t) {
      for (const std::string& proto : config.protocols) {
        const protocols::ProtocolKind kind = protocol_kind(proto);
        for (const std::string& th_name : config.thresholds) {
          // memory_k is Forgetful's knob; other protocols run one cell.
          const std::size_t k_count =
              kind == protocols::ProtocolKind::Forgetful
                  ? config.memory_k.size()
                  : 1;
          for (std::size_t ki = 0; ki < k_count; ++ki) {
            const int memory_k = config.memory_k[ki];
            for (const std::string& adv : config.adversaries) {
              for (const std::string& plan_name : config.chaos_plan) {
                CellWork w;
                w.cell.index = index;
                w.cell.n = n;
                w.cell.t = t;
                w.cell.protocol = proto;
                w.cell.thresholds = th_name;
                w.cell.memory_k = memory_k;
                w.cell.adversary = adv;
                w.cell.chaos_plan = plan_name;
                w.cell.seed0 =
                    config.seed + static_cast<std::uint64_t>(index) *
                                      static_cast<std::uint64_t>(
                                          config.trials);

                w.spec.kind = kind;
                w.spec.inputs = protocols::split_inputs(n, config.split);
                w.spec.t = t;
                w.spec.budget = config.budget;
                w.spec.thresholds = threshold_preset(th_name, n, t);
                w.spec.memory_k = memory_k;
                w.spec.audit = config.audit;
                w.spec.audit_every = config.audit_every;

                w.chaos = chaos_plan_preset(config, plan_name);
                if (writing) {
                  const std::string cell = "_cell_" + std::to_string(index);
                  w.path = artifact_path(config, cell + ".json");
                  if (config.lens) {
                    w.lens_path = artifact_path(config, cell + "_lens.json");
                  }
                }
                work.push_back(std::move(w));
                ++index;
              }
            }
          }
        }
      }
    }
  }

  // Phase 2 — serial resume: restore whole cells from validated artifacts
  // into their slots before any compute is scheduled.
  if (config.resume && writing) {
    for (CellWork& w : work) {
      w.done = timed_cell(w, config.trials, [&] {
        return try_resume_cell(config, w.cell, w.path, w.lens_path, w.acc);
      });
    }
  }

  // Phase 3 — compute the remaining cells.
  if (config.parallel_cells && ctx.pool() != nullptr) {
    // Whole cells as pool jobs: each job runs its trials inline
    // (compute_cell inline_trials), write_file_atomic targets distinct
    // paths, and every result lands in the job's own slot — nothing is
    // shared between jobs but the pool and the per-worker scratch.
    // parse_campaign_config rejects cell_timeout_ms here, so there is no
    // watchdog and a check never comes back partial.
    WorkStealingPool::TaskGroup group(*ctx.pool());
    for (CellWork& w : work) {
      if (w.done) continue;
      group.submit([&config, &ctx, &w] {
        w.done = timed_cell(w, config.trials, [&] {
          return compute_cell(config, ctx, w, /*inline_trials=*/true);
        });
      });
    }
    group.wait();
  } else {
    Watchdog watchdog;
    CancelToken& cancel = ctx.cancel_token();
    for (CellWork& w : work) {
      if (w.done) continue;
      w.done = timed_cell(w, config.trials, [&] {
        // Up to two attempts — the retry doubles the watchdog deadline, so
        // a cell that merely straddled the timeout still lands (the
        // recompute is deterministic, only the wall clock differs).
        bool done = false;
        for (int attempt = 0; attempt < 2 && !done; ++attempt) {
          cancel.reset();
          if (config.cell_timeout_ms > 0) {
            watchdog.arm(cancel, std::chrono::milliseconds(
                                     config.cell_timeout_ms << attempt));
          }
          done = compute_cell(config, ctx, w, /*inline_trials=*/false);
          if (config.cell_timeout_ms > 0) watchdog.disarm();
        }
        cancel.reset();
        return done;
      });
    }
  }

  // Phase 4 — merge the summary in canonical index order (the accumulator
  // is exactly associative, but fixing the order anyway keeps every
  // schedule byte-identical by construction). Failed cells are excluded.
  MeasureOneAccumulator summary;
  for (CellWork& w : work) {
    w.cell.failed = !w.done;
    if (w.done) summary.merge(w.acc);
    result.cells.push_back(std::move(w.cell));
  }
  result.summary =
      summary.finalize(config.model == CampaignModel::kAsync);
  if (writing) {
    write_artifact(artifact_path(config, "_summary.json"),
                   campaign_summary_json(result));
    write_artifact(artifact_path(config, "_timing.json"),
                   campaign_timing_json(result));
  }
  return result;
}

CampaignResult run_campaign(const CampaignConfig& config) {
  ParallelConfig par;
  par.threads = config.threads;
  par.chunk_size = config.chunk_size;
  CampaignContext ctx(par);
  return run_campaign(config, ctx);
}

std::string campaign_cell_json(const CampaignConfig& config,
                               const CampaignCell& cell) {
  util::Json doc;
  doc["campaign"] = config.name;
  doc["model"] = model_name(config.model);
  doc["cell"] = cell.index;
  doc["n"] = cell.n;
  doc["t"] = cell.t;
  doc["protocol"] = cell.protocol;
  doc["thresholds"] = cell.thresholds;
  doc["memory_k"] = cell.memory_k;
  doc["adversary"] = cell.adversary;
  // Lens-era axes appear ONLY when non-default, so pre-axis configs keep
  // byte-identical artifacts (and resume's re-serialization check keeps
  // accepting them).
  if (cell.chaos_plan != "none") doc["chaos_plan"] = cell.chaos_plan;
  if (config.censor_target >= 0) doc["censor_target"] = config.censor_target;
  doc["seed0"] = cell.seed0;
  doc["budget"] = config.budget;
  doc["metric_sum"] = cell.metric_sum;
  add_report_fields(doc, cell.report);
  return doc.dump();
}

std::string campaign_summary_json(const CampaignResult& result) {
  const CampaignConfig& config = result.config;
  util::Json doc;
  doc["campaign"] = config.name;
  doc["model"] = model_name(config.model);
  doc["cells"] = result.cells.size();
  doc["trials_per_cell"] = config.trials;
  doc["budget"] = config.budget;
  doc["seed"] = config.seed;
  util::Json& failed = doc["cells_failed"] = util::Json::array();
  for (const CampaignCell& cell : result.cells) {
    if (cell.failed) failed.push(cell.index);
  }
  add_report_fields(doc, result.summary);
  return doc.dump();
}

std::string campaign_timing_json(const CampaignResult& result) {
  // Deliberately a SEPARATE document from the summary/cell artifacts:
  // wall-clock differs run to run and thread count to thread count, and
  // folding it into the identity surface would break the byte-identical
  // contract (threads 1 vs N diffs, resume's canonical re-serialization
  // check). CI diffs exclude *_timing.json for the same reason.
  util::Json doc;
  doc["campaign"] = result.config.name;
  doc["trials_per_cell"] = result.config.trials;
  double total_ms = 0.0;
  for (const CampaignCell& cell : result.cells) total_ms += cell.wall_ms;
  doc["wall_ms_total"] = total_ms;
  util::Json& rows = doc["cells"] = util::Json::array();
  for (const CampaignCell& cell : result.cells) {
    util::Json& row = rows.push(util::Json::object());
    row["cell"] = cell.index;
    row["wall_ms"] = cell.wall_ms;
    row["trials_per_s"] = cell.trials_per_s;
    row["resumed"] = cell.resumed;
    row["failed"] = cell.failed;
  }
  return doc.dump();
}

}  // namespace aa::core
