#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/chaos.hpp"
#include "adversary/window_adversaries.hpp"
#include "core/campaign.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"
#include "sim/window.hpp"

namespace aa::adversary {
namespace {

using protocols::ProtocolKind;
using sim::Execution;

Execution make_exec(int n, int t, std::uint64_t seed,
                    sim::ExecutionConfig cfg = {}) {
  return Execution(protocols::make_processes(
                       ProtocolKind::Reset, t, protocols::split_inputs(n, 0.5)),
                   seed, cfg);
}

// Driver-like planning: prepare lifecycle, send phase with batch
// collection, then one plan_window_into against the collected batch.
sim::WindowPlan plan_once(sim::WindowAdversary& adv, Execution& e, int t) {
  adv.prepare(e.n(), t);
  e.begin_window_batch();
  for (int p = 0; p < e.n(); ++p) (void)e.sending_step(p);
  sim::WindowPlan plan;
  plan.reset(e.n());
  adv.plan_window_into(e, e.window_batch(), plan);
  return plan;
}

std::unique_ptr<sim::WindowAdversary> random_inner(std::uint64_t seed, int t) {
  return core::window_adversary_factory("random", t)(seed);
}

std::unique_ptr<sim::AsyncAdversary> random_async_inner(std::uint64_t seed,
                                                        int t) {
  return core::async_adversary_factory("random-async", t)(seed);
}

// Fingerprint for bit-identity comparisons between two runs.
struct RunPrint {
  std::int64_t windows;
  std::int64_t steps;
  std::int64_t resets;
  int crashed;
  int decided;
  std::vector<int> outputs;

  friend bool operator==(const RunPrint&, const RunPrint&) = default;
};

RunPrint window_run(sim::WindowAdversary& adv, std::uint64_t seed, int n,
                    int t, sim::ExecutionConfig cfg = {}) {
  Execution e = make_exec(n, t, seed, cfg);
  RunPrint r;
  r.windows = sim::run_until_all_decided(e, adv, t, 200);
  r.steps = e.step_count();
  r.resets = e.total_resets();
  r.crashed = e.crashed_count();
  r.decided = e.decided_count();
  for (int p = 0; p < n; ++p) r.outputs.push_back(e.output(p));
  return r;
}

TEST(ChaosWindow, DisabledPlanIsExactPassthrough) {
  const int n = 10;
  const int t = 2;
  const sim::FaultPlan off;  // enabled() == false
  for (const std::uint64_t seed : {1ull, 7ull, 23ull}) {
    auto plain = random_inner(seed, t);
    ChaosWindowAdversary chaotic(random_inner(seed, t), off, seed);
    EXPECT_EQ(window_run(*plain, seed, n, t), window_run(chaotic, seed, n, t))
        << "seed " << seed;
  }
}

TEST(ChaosWindow, SameSeedReplaysBitIdentically) {
  const int n = 12;
  const int t = 2;
  sim::FaultPlan fp;
  fp.crash_prob = 0.2;
  fp.crash_budget = 3;
  fp.reset_prob = 0.5;
  fp.censor_prob = 0.4;
  fp.censor_target = 1;
  fp.duplicate_row_prob = 0.3;
  fp.degenerate_prob = 0.1;
  fp.chaos_seed = 99;
  for (const std::uint64_t seed : {3ull, 11ull}) {
    ChaosWindowAdversary a(random_inner(seed, t), fp, seed);
    ChaosWindowAdversary b(random_inner(seed, t), fp, seed);
    EXPECT_EQ(window_run(a, seed, n, t), window_run(b, seed, n, t))
        << "seed " << seed;
  }
}

TEST(ChaosWindow, CrashBudgetRespectedAndAuditGreen) {
  const int n = 10;
  const int t = 2;
  sim::FaultPlan fp;
  fp.crash_prob = 1.0;
  fp.crash_budget = 2;
  sim::ExecutionConfig cfg;
  cfg.audit = true;  // every window boundary audits the whole engine state
  for (const std::uint64_t seed : {5ull, 17ull, 41ull}) {
    ChaosWindowAdversary chaos(random_inner(seed, t), fp, seed);
    Execution e = make_exec(n, t, seed, cfg);
    ASSERT_NO_THROW(sim::run_until_all_decided(e, chaos, t, 60));
    EXPECT_LE(e.crashed_count(), fp.crash_budget);
    EXPECT_NO_THROW(e.audit());
  }
}

TEST(ChaosWindow, CensorRemovesTargetWhereRowsHaveSlack) {
  const int n = 10;
  const int t = 2;
  sim::FaultPlan fp;
  fp.censor_prob = 1.0;
  fp.censor_target = 3;
  Execution e = make_exec(n, t, 4);
  // Fair delivers everyone (row size n > n − t), so every row has slack and
  // certain censorship must scrub the target from all of them.
  ChaosWindowAdversary chaos(std::make_unique<FairWindowAdversary>(), fp, 4);
  const sim::WindowPlan plan = plan_once(chaos, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  for (const auto& row : plan.delivery_order) {
    EXPECT_EQ(std::count(row.begin(), row.end(), 3), 0);
    EXPECT_GE(row.size(), static_cast<std::size_t>(n - t));
  }
}

TEST(ChaosWindow, DegenerateWindowIsMinimalAcceptable) {
  const int n = 19;
  const int t = 3;
  sim::FaultPlan fp;
  fp.degenerate_prob = 1.0;
  Execution e = make_exec(n, t, 6);
  ChaosWindowAdversary chaos(std::make_unique<FairWindowAdversary>(), fp, 6);
  const sim::WindowPlan plan = plan_once(chaos, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  EXPECT_TRUE(plan.resets.empty());
  std::vector<sim::ProcId> want;
  for (sim::ProcId p = 0; p < n - t; ++p) want.push_back(p);
  for (const auto& row : plan.delivery_order) EXPECT_EQ(row, want);
}

TEST(ChaosWindow, ResetTopUpReachesFullBudget) {
  const int n = 19;
  const int t = 3;
  sim::FaultPlan fp;
  fp.reset_prob = 1.0;
  Execution e = make_exec(n, t, 8);
  // Fair plans zero resets; certain top-up must fill all t distinct slots.
  ChaosWindowAdversary chaos(std::make_unique<FairWindowAdversary>(), fp, 8);
  const sim::WindowPlan plan = plan_once(chaos, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
  EXPECT_EQ(plan.resets.size(), static_cast<std::size_t>(t));
}

TEST(ChaosWindow, DuplicatedRowsStayAcceptable) {
  const int n = 10;
  const int t = 2;
  sim::FaultPlan fp;
  fp.duplicate_row_prob = 1.0;
  Execution e = make_exec(n, t, 10);
  ChaosWindowAdversary chaos(
      std::make_unique<SilencerWindowAdversary>(std::vector<sim::ProcId>{0}),
      fp, 10);
  const sim::WindowPlan plan = plan_once(chaos, e, t);
  EXPECT_NO_THROW(sim::validate_window_plan(plan, n, t));
}

TEST(ChaosWindow, NameWrapsInner) {
  const sim::FaultPlan off;
  ChaosWindowAdversary chaos(std::make_unique<FairWindowAdversary>(), off, 1);
  EXPECT_EQ(chaos.name(), "chaos(" + FairWindowAdversary().name() + ")");
}

TEST(ChaosAsync, CrashInjectionHonoursBothBudgets) {
  const int n = 10;
  const int t = 2;
  sim::FaultPlan fp;
  fp.crash_prob = 1.0;
  fp.crash_budget = 5;  // wants more than the model allows
  for (const std::uint64_t seed : {2ull, 9ull}) {
    ChaosAsyncScheduler chaos(random_async_inner(seed, t), fp, seed);
    Execution e = make_exec(n, t, seed);
    const sim::AsyncRunResult rr = sim::run_async(e, chaos, t, 4000, true);
    EXPECT_LE(rr.crashes, t);  // model budget binds before the fault budget
    EXPECT_EQ(e.crashed_count(), rr.crashes);
  }
}

TEST(ChaosAsync, SameSeedReplaysBitIdentically) {
  const int n = 10;
  const int t = 2;
  sim::FaultPlan fp;
  fp.crash_prob = 0.01;
  fp.crash_budget = 2;
  fp.chaos_seed = 5;
  for (const std::uint64_t seed : {4ull, 13ull}) {
    std::vector<std::int64_t> prints;
    for (int run = 0; run < 2; ++run) {
      ChaosAsyncScheduler chaos(random_async_inner(seed, t), fp, seed);
      Execution e = make_exec(n, t, seed);
      const sim::AsyncRunResult rr = sim::run_async(e, chaos, t, 4000, true);
      prints.push_back(rr.deliveries);
      prints.push_back(rr.crashes);
      prints.push_back(e.step_count());
      prints.push_back(e.decided_count());
    }
    EXPECT_EQ(std::vector<std::int64_t>(prints.begin(), prints.begin() + 4),
              std::vector<std::int64_t>(prints.begin() + 4, prints.end()))
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace aa::adversary
