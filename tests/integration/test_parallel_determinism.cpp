// Satellite of the parallel-trial-engine PR: the same (seed0, trials) must
// produce a bit-identical MeasureOneReport — counts, exact floating-point
// means, and the violating_seeds vector — at every thread count, for both
// checkers and for the exhaustive explorer. This is the contract that makes
// parallel Monte-Carlo results replayable (DESIGN.md decision D3 extended
// to the merge tree: fixed chunking + in-order merge).
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/checker.hpp"
#include "core/exhaustive.hpp"
#include "core/experiment.hpp"
#include "protocols/factory.hpp"

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

void expect_identical(const MeasureOneReport& a, const MeasureOneReport& b,
                      int threads) {
  EXPECT_EQ(a.trials, b.trials) << "threads=" << threads;
  EXPECT_EQ(a.agreement_violations, b.agreement_violations)
      << "threads=" << threads;
  EXPECT_EQ(a.validity_violations, b.validity_violations)
      << "threads=" << threads;
  EXPECT_EQ(a.decided_runs, b.decided_runs) << "threads=" << threads;
  EXPECT_EQ(a.all_decided_runs, b.all_decided_runs) << "threads=" << threads;
  // Bit-identical, not approximately equal: the merge tree must not depend
  // on the thread count.
  EXPECT_EQ(a.mean_windows_to_first, b.mean_windows_to_first)
      << "threads=" << threads;
  EXPECT_EQ(a.mean_chain_at_decision, b.mean_chain_at_decision)
      << "threads=" << threads;
  EXPECT_EQ(a.violating_seeds, b.violating_seeds) << "threads=" << threads;
}

TEST(ParallelDeterminism, WindowCheckerBitIdenticalAcrossThreadCounts) {
  const int n = 13;
  const int t = 2;
  const auto run = [&](int threads) {
    CampaignContext ctx(ParallelConfig{.threads = threads, .chunk_size = 4});
    return check_measure_one_window(
        spec_of(ProtocolKind::Reset, n, t, /*max_windows=*/100000),
        [t](std::uint64_t seed) {
          return std::make_unique<adversary::RandomWindowAdversary>(t, 0.2,
                                                                    Rng(seed));
        },
        /*trials=*/24, /*seed0=*/1000, ctx);
  };
  const MeasureOneReport serial = run(1);
  EXPECT_EQ(serial.all_decided_runs, 24);
  for (const int threads : {2, 8}) {
    expect_identical(serial, run(threads), threads);
  }
}

TEST(ParallelDeterminism, WindowCheckerViolatingSeedsIdenticalAndSorted) {
  // Broken thresholds so violations actually occur (cf. test_checker's
  // ViolatingSeedsRecorded): the recorded seeds must match exactly and
  // arrive ascending at every thread count.
  const int n = 8;
  const int t = 1;
  const protocols::Thresholds broken{6, 4, 4};
  ASSERT_FALSE(protocols::thresholds_valid(n, t, broken));
  const auto run = [&](int threads) {
    CampaignContext ctx(ParallelConfig{.threads = threads, .chunk_size = 8});
    return check_measure_one_window(
        spec_of(ProtocolKind::Reset, n, t, /*max_windows=*/2000, broken),
        [t](std::uint64_t seed) {
          return std::make_unique<adversary::RandomWindowAdversary>(t, 0.0,
                                                                    Rng(seed));
        },
        /*trials=*/40, /*seed0=*/3000, ctx);
  };
  const MeasureOneReport serial = run(1);
  ASSERT_GT(serial.agreement_violations, 0);
  EXPECT_TRUE(std::is_sorted(serial.violating_seeds.begin(),
                             serial.violating_seeds.end()));
  for (const int threads : {2, 8}) {
    expect_identical(serial, run(threads), threads);
  }
}

TEST(ParallelDeterminism, AsyncCheckerBitIdenticalAcrossThreadCounts) {
  const int n = 9;
  const int t = 2;
  const auto run = [&](int threads) {
    CampaignContext ctx(ParallelConfig{.threads = threads, .chunk_size = 2});
    return check_measure_one_async(
        spec_of(ProtocolKind::BenOr, n, t, /*max_deliveries=*/5'000'000),
        [](std::uint64_t seed) {
          return std::make_unique<adversary::RandomAsyncScheduler>(Rng(seed));
        },
        /*trials=*/12, /*seed0=*/4000, ctx);
  };
  const MeasureOneReport serial = run(1);
  EXPECT_EQ(serial.decided_runs, 12);
  EXPECT_GT(serial.mean_chain_at_decision, 0.0);
  // finalize(true) mirrors the async chain metric into
  // mean_windows_to_first.
  EXPECT_EQ(serial.mean_chain_at_decision, serial.mean_windows_to_first);
  for (const int threads : {2, 8}) {
    expect_identical(serial, run(threads), threads);
  }
}

TEST(ParallelDeterminism, ExhaustiveReportIdenticalAcrossThreadCounts) {
  const int n = 7;
  const int t = 1;
  const auto run = [&](int threads) {
    CampaignContext ctx(ParallelConfig{.threads = threads});
    return exhaustive_check(t, protocols::canonical_thresholds(n, t),
                            protocols::split_inputs(n, 4.0 / 7),
                            {.max_depth = 2, .max_configs = 150000}, ctx);
  };
  const ExhaustiveReport serial = run(1);
  EXPECT_TRUE(serial.clean());
  for (const int threads : {2, 8}) {
    const ExhaustiveReport par = run(threads);
    EXPECT_EQ(serial.configs_explored, par.configs_explored);
    EXPECT_EQ(serial.transitions, par.transitions);
    EXPECT_EQ(serial.depth_completed, par.depth_completed);
    EXPECT_EQ(serial.budget_exhausted, par.budget_exhausted);
    EXPECT_EQ(serial.agreement_ok, par.agreement_ok);
    EXPECT_EQ(serial.validity_ok, par.validity_ok);
  }
}

TEST(ParallelDeterminism, ExhaustiveViolationWitnessIdentical) {
  // A run that FINDS a violation must report the same first witness (the
  // same canonical-order candidate) at any thread count (n = 7).
  const int t = 1;
  const protocols::Thresholds broken{5, 4, 4};
  AbstractConfig start;
  start.x = {0, 1, 1, 1, 1, 1, 1};
  start.out = {0, -1, -1, -1, -1, -1, -1};
  const auto run = [&](int threads) {
    CampaignContext ctx(ParallelConfig{.threads = threads});
    return exhaustive_check_from(t, broken, start, {true, true},
                                 {.max_depth = 1, .max_configs = 100000}, ctx);
  };
  const ExhaustiveReport serial = run(1);
  ASSERT_TRUE(serial.violation.has_value());
  for (const int threads : {2, 8}) {
    const ExhaustiveReport par = run(threads);
    EXPECT_EQ(serial.transitions, par.transitions);
    ASSERT_TRUE(par.violation.has_value());
    EXPECT_EQ(*serial.violation, *par.violation);
  }
}

}  // namespace
}  // namespace aa::core
