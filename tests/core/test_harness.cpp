// Per-mode trial runs through core::Runner — window, async and Byzantine
// outcomes for one spec and one seed — plus the agreement / validity verdict
// helpers.
#include <gtest/gtest.h>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/experiment.hpp"

namespace aa::core {
namespace {

using protocols::ProtocolKind;

Experiment window_spec(int n, std::int64_t budget,
                       StopCondition stop = StopCondition::kFirstDecision) {
  Experiment spec;
  spec.kind = ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = 2;
  spec.budget = budget;
  spec.stop = stop;
  return spec;
}

// ---- window runs ----------------------------------------------------------

TEST(WindowHarness, UnanimousFastPath) {
  Experiment spec = window_spec(12, 100);
  spec.inputs = protocols::unanimous_inputs(12, 1);
  spec.t = 1;
  adversary::FairWindowAdversary fair;
  const WindowRunResult r = Runner(spec).run_window(fair, 7);
  EXPECT_TRUE(r.decided);
  EXPECT_EQ(r.decision, 1);
  EXPECT_EQ(r.windows_to_first, 1);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
}

TEST(WindowHarness, RespectsMaxWindows) {
  Experiment spec = window_spec(20, /*budget=*/2);
  spec.t = 3;
  adversary::SplitKeeperAdversary keeper;
  const WindowRunResult r = Runner(spec).run_window(keeper, 7);
  EXPECT_LE(r.windows_total, 2);
}

TEST(WindowHarness, CustomThresholdsHonoured) {
  // Large slack (small t): a lower T2 must not break agreement.
  const int n = 36;
  const int t = 2;
  Experiment spec = window_spec(n, 100000, StopCondition::kAllDecided);
  spec.t = t;
  spec.thresholds =
      protocols::Thresholds{n - 2 * t, n - 2 * t - 3, n - 2 * t - 3 - t};
  adversary::FairWindowAdversary fair;
  const WindowRunResult r = Runner(spec).run_window(fair, 11);
  EXPECT_TRUE(r.all_decided);
  EXPECT_TRUE(r.agreement);
}

// ---- async runs -----------------------------------------------------------

Experiment benor_spec(std::int64_t max_deliveries) {
  Experiment spec;
  spec.kind = ProtocolKind::BenOr;
  spec.inputs = protocols::split_inputs(9, 0.5);
  spec.t = 2;
  spec.budget = max_deliveries;
  return spec;
}

TEST(AsyncHarness, BenOrRunsToDecision) {
  adversary::RandomAsyncScheduler sched(Rng(3));
  const AsyncRunOutcome r = Runner(benor_spec(5'000'000)).run_async(sched, 13);
  EXPECT_TRUE(r.decided);
  EXPECT_TRUE(r.agreement);
  EXPECT_TRUE(r.validity);
  EXPECT_GT(r.chain_at_decision, 0);
}

TEST(AsyncHarness, ReportsStepLimit) {
  adversary::RandomAsyncScheduler sched(Rng(3));
  const AsyncRunOutcome r = Runner(benor_spec(3)).run_async(sched, 13);
  EXPECT_TRUE(r.hit_limit);
  EXPECT_FALSE(r.decided);
}

// ---- Byzantine runs -------------------------------------------------------

TEST(ByzantineHarness, CrashedHonestProcessorDoesNotBlockAllDecided) {
  // Regression: the final verdict used to count a crashed honest
  // processor's kBot output as "not all decided" even though the run loop
  // (honest_done) deliberately exempts crashed processors. Crash one honest
  // processor up front; every live processor decides, so the verdict must
  // be honest_all_decided = true with n - 1 deciders.
  const int n = 13;
  Experiment spec = window_spec(n, 100000);
  spec.byzantine = ByzantineSpec{0, protocols::ByzantineStrategy::Silent,
                                 /*pre_crashed=*/{0}};
  adversary::FairWindowAdversary fair;
  const ByzantineRunResult r = Runner(spec).run_byzantine(fair, 7);
  EXPECT_TRUE(r.honest_all_decided);
  EXPECT_EQ(r.honest_decided, n - 1);
  EXPECT_TRUE(r.honest_agreement);
  EXPECT_TRUE(r.honest_validity);
}

TEST(ByzantineHarness, NoPreCrashStillCountsEveryone) {
  // Companion to the regression above: with nobody crashed the verdict
  // quantifies over all n processors, same as before the fix.
  const int n = 13;
  Experiment spec = window_spec(n, 100000);
  spec.byzantine = ByzantineSpec{0, protocols::ByzantineStrategy::Silent, {}};
  adversary::FairWindowAdversary fair;
  const ByzantineRunResult r = Runner(spec).run_byzantine(fair, 7);
  EXPECT_TRUE(r.honest_all_decided);
  EXPECT_EQ(r.honest_decided, n);
}

// ---- verdict helpers ------------------------------------------------------

TEST(CheckValidity, FlagsOutputNotAmongInputs) {
  // Run a unanimity-0 execution (outputs must be 0), then judge it against
  // a hypothetical all-ones input vector: the 0 outputs are invalid there.
  adversary::FairWindowAdversary fair;
  sim::Execution exec(
      protocols::make_processes(ProtocolKind::Reset, 1,
                                protocols::unanimous_inputs(12, 0)),
      7);
  sim::run_until_all_decided(exec, fair, 1, 100);
  ASSERT_TRUE(exec.all_live_decided());
  EXPECT_TRUE(check_validity(exec, protocols::unanimous_inputs(12, 0)));
  EXPECT_FALSE(check_validity(exec, protocols::unanimous_inputs(12, 1)));
}

TEST(CheckAgreement, TrueOnAgreeingRun) {
  adversary::FairWindowAdversary fair;
  sim::Execution exec(
      protocols::make_processes(ProtocolKind::Reset, 1,
                                protocols::split_inputs(12, 0.5)),
      3);
  sim::run_until_all_decided(exec, fair, 1, 100000);
  EXPECT_TRUE(check_agreement(exec));
}

}  // namespace
}  // namespace aa::core
