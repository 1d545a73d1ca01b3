#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "core/checker.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

Experiment spec_of(ProtocolKind kind, int n, int t, std::int64_t budget,
                   std::optional<protocols::Thresholds> th = std::nullopt) {
  Experiment spec;
  spec.kind = kind;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = budget;
  spec.thresholds = th;
  return spec;
}

void expect_same_report(const MeasureOneReport& a, const MeasureOneReport& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.agreement_violations, b.agreement_violations);
  EXPECT_EQ(a.validity_violations, b.validity_violations);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
  EXPECT_EQ(a.all_decided_runs, b.all_decided_runs);
  EXPECT_EQ(a.mean_windows_to_first, b.mean_windows_to_first);
  EXPECT_EQ(a.mean_chain_at_decision, b.mean_chain_at_decision);
  EXPECT_EQ(a.violating_seeds, b.violating_seeds);
}

/// Every check in this file runs serially on one shared context.
class CheckerTest : public ::testing::Test {
 protected:
  CampaignContext ctx{ParallelConfig{}};
};

using MeasureOneWindow = CheckerTest;
using MeasureOneAsync = CheckerTest;
using SharedAggregation = CheckerTest;

TEST_F(MeasureOneWindow, ResetAgreementCleanUnderRandomAdversary) {
  const int n = 13;
  const int t = 2;
  const MeasureOneReport rep = check_measure_one_window(
      spec_of(ProtocolKind::Reset, n, t, /*max_windows=*/100000),
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::RandomWindowAdversary>(t, 0.2,
                                                                  Rng(seed));
      },
      /*trials=*/30, /*seed0=*/1000, ctx);
  EXPECT_TRUE(rep.clean()) << rep.agreement_violations << " / "
                           << rep.validity_violations;
  EXPECT_EQ(rep.trials, 30);
  EXPECT_EQ(rep.all_decided_runs, 30);  // termination in every trial
  EXPECT_GT(rep.mean_windows_to_first, 0.0);
  // Window-model reports have no chain metric.
  EXPECT_EQ(rep.mean_chain_at_decision, 0.0);
}

TEST_F(MeasureOneWindow, ResetAgreementCleanUnderResetStorm) {
  const int n = 13;
  const int t = 2;
  const MeasureOneReport rep = check_measure_one_window(
      spec_of(ProtocolKind::Reset, n, t, 200000),
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::ResetStormAdversary>(t, Rng(seed));
      },
      20, 2000, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 20);
}

TEST_F(MeasureOneWindow, ViolatingSeedsRecorded) {
  // Deliberately break the threshold contract (T2 too small ⇒ premature,
  // possibly conflicting decisions) and confirm the checker CATCHES it.
  // n=8, t=1: T1=6, T2=4, T3=4 violates 2*T3 > n and T2 >= T3 + t.
  const int n = 8;
  const int t = 1;
  const protocols::Thresholds broken{6, 4, 4};
  ASSERT_FALSE(protocols::thresholds_valid(n, t, broken));
  const MeasureOneReport rep = check_measure_one_window(
      spec_of(ProtocolKind::Reset, n, t, 2000, broken),
      [t](std::uint64_t seed) {
        return std::make_unique<adversary::RandomWindowAdversary>(t, 0.0,
                                                                  Rng(seed));
      },
      40, 3000, ctx);
  // With T2 = T3 = 4 out of T1 = 6 and a 4/4 split, conflicting decisions
  // occur with substantial probability within 40 trials.
  EXPECT_GT(rep.agreement_violations, 0);
  EXPECT_EQ(rep.violating_seeds.size(),
            static_cast<std::size_t>(rep.agreement_violations +
                                     rep.validity_violations));
}

TEST_F(MeasureOneAsync, BenOrCleanUnderCrashes) {
  const int n = 9;
  const int t = 2;
  const MeasureOneReport rep = check_measure_one_async(
      spec_of(ProtocolKind::BenOr, n, t, /*max_deliveries=*/5'000'000),
      [](std::uint64_t seed) {
        return std::make_unique<adversary::FixedCrashScheduler>(
            std::vector<sim::ProcId>{0, 1}, Rng(seed));
      },
      15, 4000, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.decided_runs, 15);
  // The async decision metric is the message-chain length; finalize(true)
  // mirrors it into mean_windows_to_first.
  EXPECT_GT(rep.mean_chain_at_decision, 0.0);
  EXPECT_EQ(rep.mean_chain_at_decision, rep.mean_windows_to_first);
}

TEST_F(MeasureOneAsync, ForgetfulCleanUnderRandomScheduler) {
  const int n = 12;
  const int t = 1;
  const MeasureOneReport rep = check_measure_one_async(
      spec_of(ProtocolKind::Forgetful, n, t, 5'000'000),
      [](std::uint64_t seed) {
        return std::make_unique<adversary::RandomAsyncScheduler>(Rng(seed));
      },
      15, 5000, ctx);
  EXPECT_TRUE(rep.clean());
  EXPECT_EQ(rep.all_decided_runs, 15);
}

TEST_F(MeasureOneWindow, SeedsAreSequentialFromSeed0) {
  // Two identical invocations give identical reports (replayability).
  auto run = [&] {
    return check_measure_one_window(
        spec_of(ProtocolKind::Reset, 13, 2, 100000),
        [](std::uint64_t seed) {
          return std::make_unique<adversary::RandomWindowAdversary>(2, 0.1,
                                                                    Rng(seed));
        },
        10, 77, ctx);
  };
  const MeasureOneReport a = run();
  const MeasureOneReport b = run();
  EXPECT_EQ(a.mean_windows_to_first, b.mean_windows_to_first);
  EXPECT_EQ(a.decided_runs, b.decided_runs);
}

// ---- one aggregation: checker reports are the accumulator's finalize() ----

TEST_F(SharedAggregation, WindowReportIsAccumulatorFinalize) {
  // Broken thresholds, so the report carries violating seeds as well as a
  // non-integer mean.
  MeasureOneAccumulator acc;
  const MeasureOneReport rep = check_measure_one_window(
      spec_of(ProtocolKind::Reset, 8, 1, 2000, protocols::Thresholds{6, 4, 4}),
      window_adversary_factory("random", 1), /*trials=*/40, /*seed0=*/3000,
      ctx, &acc);
  ASSERT_GT(rep.agreement_violations, 0);
  EXPECT_EQ(acc.trials(), 40);
  expect_same_report(rep, acc.finalize());
}

TEST_F(SharedAggregation, AsyncReportIsAccumulatorFinalize) {
  MeasureOneAccumulator acc;
  const MeasureOneReport rep = check_measure_one_async(
      spec_of(ProtocolKind::BenOr, 10, 2, 40000),
      async_adversary_factory("random-async", 2), /*trials=*/30,
      /*seed0=*/500, ctx, &acc);
  ASSERT_GT(rep.decided_runs, 0);
  EXPECT_EQ(acc.trials(), 30);
  expect_same_report(rep, acc.finalize(/*async_metric=*/true));
}

TEST_F(SharedAggregation, ReportIndependentOfChunkingAndThreads) {
  // The fold is exact, so neither the chunk size nor the pool width can
  // move a single bit of the report.
  const Experiment spec = spec_of(ProtocolKind::Reset, 12, 1, 400);
  const auto run = [&](CampaignContext& c) {
    return check_measure_one_window(spec, window_adversary_factory("random", 1),
                                    /*trials=*/25, /*seed0=*/11, c);
  };
  const MeasureOneReport base = run(ctx);
  for (const ParallelConfig par :
       {ParallelConfig{.threads = 1, .chunk_size = 3},
        ParallelConfig{.threads = 4, .chunk_size = 1},
        ParallelConfig{.threads = 2, .chunk_size = 7}}) {
    CampaignContext other(par);
    expect_same_report(base, run(other));
  }
}

TEST_F(SharedAggregation, CampaignCellEqualsDirectCheck) {
  // A campaign cell's report is the checker's report on the same spec and
  // seed block, for both models.
  for (const CampaignModel model : {CampaignModel::kWindow,
                                    CampaignModel::kAsync}) {
    const bool async = model == CampaignModel::kAsync;
    CampaignConfig cfg;
    cfg.model = model;
    cfg.n = {10};
    cfg.t = {2};
    cfg.protocols = {async ? "benor" : "reset"};
    cfg.adversaries = {async ? "fixed-crash" : "reset-storm"};
    cfg.trials = 12;
    cfg.budget = async ? 40000 : 400;
    cfg.seed = 4321;
    cfg.chunk_size = 5;
    const CampaignResult result = run_campaign(cfg, ctx);
    ASSERT_EQ(result.cells.size(), 1u);
    const CampaignCell& cell = result.cells[0];

    const Experiment spec = spec_of(async ? ProtocolKind::BenOr
                                          : ProtocolKind::Reset,
                                    10, 2, cfg.budget);
    const MeasureOneReport direct =
        async ? check_measure_one_async(
                    spec, async_adversary_factory("fixed-crash", 2),
                    cfg.trials, cell.seed0, ctx)
              : check_measure_one_window(
                    spec, window_adversary_factory("reset-storm", 2),
                    cfg.trials, cell.seed0, ctx);
    expect_same_report(cell.report, direct);
    expect_same_report(result.summary, direct);
  }
}

}  // namespace
}  // namespace aa::core
