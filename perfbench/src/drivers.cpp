#include "drivers.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "adversary/async_adversaries.hpp"
#include "adversary/window_adversaries.hpp"
#include "protocols/factory.hpp"
#include "sim/async.hpp"
#include "sim/window.hpp"

namespace pb {

namespace core = aa::core;
namespace sim = aa::sim;

namespace {

std::vector<sim::ProcId> first_ids(int count) {
  std::vector<sim::ProcId> ids;
  for (int i = 0; i < count; ++i) ids.push_back(i);
  return ids;
}

/// Builds the record from the finished execution. Agreement and validity
/// are recomputed from the outputs here; `library_ok` says whether the
/// library's own verdicts and counters matched.
TrialRecord record_of(const sim::Execution& exec,
                      const std::vector<int>& inputs, std::int64_t windows,
                      bool lib_agreement, bool lib_validity, bool library_ok) {
  TrialRecord r;
  r.decided = exec.decided_count() > 0;
  r.all_decided = exec.all_live_decided();
  if (const auto first = exec.first_decision()) {
    r.decision = first->value;
    r.windows_to_first = first->window + 1;
  }
  r.windows = windows;
  r.deliveries = static_cast<std::int64_t>(exec.buffer().delivered_count());
  r.published = static_cast<std::int64_t>(exec.buffer().total_sent());
  r.dropped = static_cast<std::int64_t>(exec.buffer().dropped_count());
  r.resets = exec.total_resets();
  r.steps = exec.step_count();
  r.crashes = exec.crashed_count();

  bool have[2] = {false, false};
  for (const int b : inputs) {
    if (b == 0 || b == 1) have[b] = true;
  }
  bool agreement = true;
  bool validity = true;
  int seen = sim::kBot;
  for (sim::ProcId p = 0; p < exec.n(); ++p) {
    const int o = exec.output(p);
    if (o == sim::kBot) continue;
    if (o != 0 && o != 1) {
      validity = false;
      continue;
    }
    if (!have[o]) validity = false;
    if (seen == sim::kBot) seen = o;
    else if (seen != o) agreement = false;
  }
  r.agreement = agreement;
  r.validity = validity;
  r.library_agrees = library_ok && agreement == lib_agreement &&
                     validity == lib_validity;
  return r;
}

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(what);
}

}  // namespace

core::WindowAdversaryFactory window_adversary(const std::string& name, int t) {
  if (name == "fair") {
    return [](std::uint64_t) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<aa::adversary::FairWindowAdversary>();
    };
  }
  if (name == "silencer") {
    return [t](std::uint64_t) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<aa::adversary::SilencerWindowAdversary>(
          first_ids(t));
    };
  }
  if (name == "reset-storm") {
    return [t](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<aa::adversary::ResetStormAdversary>(
          t, aa::Rng(seed * 7 + 1));
    };
  }
  if (name == "split-keeper") {
    return [](std::uint64_t) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<aa::adversary::SplitKeeperAdversary>();
    };
  }
  if (name == "random") {
    return [t](std::uint64_t seed) -> std::unique_ptr<sim::WindowAdversary> {
      return std::make_unique<aa::adversary::RandomWindowAdversary>(
          t, 0.1, aa::Rng(seed * 9 + 2));
    };
  }
  throw std::invalid_argument("perfbench: unknown window adversary " + name);
}

core::AsyncAdversaryFactory async_adversary(const std::string& name, int t) {
  if (name == "random-async") {
    return [](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<aa::adversary::RandomAsyncScheduler>(
          aa::Rng(seed * 3 + 1));
    };
  }
  if (name == "fixed-crash") {
    return [t](std::uint64_t seed) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<aa::adversary::FixedCrashScheduler>(
          first_ids(t), aa::Rng(seed * 5 + 3));
    };
  }
  if (name == "async-split") {
    return [](std::uint64_t) -> std::unique_ptr<sim::AsyncAdversary> {
      return std::make_unique<aa::adversary::AsyncSplitKeeper>();
    };
  }
  throw std::invalid_argument("perfbench: unknown async adversary " + name);
}

TrialRecord run_window_trial(const core::Runner& runner,
                             const core::WindowAdversaryFactory& make,
                             std::uint64_t seed, core::WorkerScratch& scratch) {
  const auto adv = make(seed);
  const core::WindowRunResult res = runner.run_window(*adv, seed, scratch);
  const sim::Execution& exec = *scratch.exec;
  const bool consistent = res.windows_total == exec.window() &&
                          res.steps == exec.step_count() &&
                          res.total_resets == exec.total_resets() &&
                          res.decided == (exec.decided_count() > 0) &&
                          res.all_decided == exec.all_live_decided();
  return record_of(exec, runner.spec().inputs, res.windows_total,
                   res.agreement, res.validity, consistent);
}

TrialRecord run_async_trial(const core::Runner& runner,
                            const core::AsyncAdversaryFactory& make,
                            std::uint64_t seed, core::WorkerScratch& scratch) {
  const auto adv = make(seed);
  const core::AsyncRunOutcome res = runner.run_async(*adv, seed, scratch);
  const sim::Execution& exec = *scratch.exec;
  const bool consistent =
      res.deliveries ==
          static_cast<std::int64_t>(exec.buffer().delivered_count()) &&
      res.crashes == exec.crashed_count() &&
      res.decided == (exec.decided_count() > 0) &&
      res.all_decided == exec.all_live_decided();
  return record_of(exec, runner.spec().inputs, 0, res.agreement, res.validity,
                   consistent);
}

// ------------------------------------------------------- traced replay

sim::Execution& TracedDriver::prepare(const core::Experiment& spec,
                                      std::uint64_t seed) {
  std::vector<std::unique_ptr<sim::Process>> procs;
  {
    Span s(tracer, SpanKind::kTrialSetup);
    procs = aa::protocols::make_processes(spec.kind, spec.t, spec.inputs,
                                          spec.thresholds, spec.memory_k);
  }
  for (auto& p : procs) {
    p = std::make_unique<TracedProcess>(std::move(p), tracer);
  }

  // The same configuration core::Runner builds for this spec.
  sim::ExecutionConfig cfg;
  cfg.audit = spec.audit;
  cfg.audit_every = spec.audit_every;
  if (spec.lens) {
    if (!trace_) trace_.emplace();
    cfg.lens = &*trace_;
  }
  Span s(tracer, SpanKind::kTrialSetup);
  if (exec_) {
    exec_->reset(std::move(procs), seed, cfg);
  } else {
    exec_.emplace(std::move(procs), seed, cfg);
  }
  return *exec_;
}

// Mirrors sim::run_acceptable_window step for step.
void TracedDriver::run_window(sim::Execution& exec, sim::WindowAdversary& adv,
                              int t) {
  const int n = exec.n();
  sim::WindowScratch& sc = exec.window_scratch();
  if (sc.planner != static_cast<const void*>(&adv) || sc.planner_t != t) {
    Span s(tracer, SpanKind::kAdvSetup);
    adv.prepare(n, t);
    sc.planner = static_cast<const void*>(&adv);
    sc.planner_t = t;
    sc.plan.reset(n);
    sc.plan_validated = false;
  }

  {
    const auto before = exec.buffer().total_sent();
    Span s(tracer, SpanKind::kPublish);
    exec.begin_window_batch();
    for (sim::ProcId p = 0; p < n; ++p) exec.sending_step(p);
    s.set_items(static_cast<std::int64_t>(exec.buffer().total_sent() - before));
  }

  const sim::PlanDecision decision = [&] {
    Span s(tracer, SpanKind::kPlan, 1);
    return adv.plan_window_into(exec, exec.window_batch(), sc.plan);
  }();
  if (decision == sim::PlanDecision::kReusePrevious) {
    ++plan_reused;
  } else {
    ++plan_updated;
  }
  if (decision == sim::PlanDecision::kUpdated || !sc.plan_validated ||
      sc.plan_liveness_epoch != exec.liveness_epoch()) {
    Span s(tracer, SpanKind::kValidate, 1);
    sim::validate_window_plan(sc.plan, n, t, sc);
    sc.plan_validated = true;
    sc.plan_liveness_epoch = exec.liveness_epoch();
    ++validations;
  }

  {
    Span s(tracer, SpanKind::kDeliver);
    std::int64_t delivered = 0;
    for (sim::ProcId i = 0; i < n; ++i) {
      if (exec.crashed(i)) continue;
      delivered += exec.deliver_plan_row(
          i, sc.plan.delivery_order[static_cast<std::size_t>(i)]);
    }
    s.set_items(delivered);
  }

  if (!sc.plan.resets.empty()) {
    Span s(tracer, SpanKind::kReset);
    std::int64_t resets = 0;
    for (const sim::ProcId p : sc.plan.resets) {
      if (!exec.crashed(p)) {
        exec.resetting_step(p);
        ++resets;
      }
    }
    s.set_items(resets);
  }

  const auto crashes = adv.window_crashes();
  if (!crashes.empty()) {
    Span s(tracer, SpanKind::kCrash, static_cast<std::int64_t>(crashes.size()));
    for (const sim::ProcId p : crashes) exec.crash(p);
  }

  Span s(tracer, SpanKind::kSweep, 1);
  exec.end_window();
}

TrialRecord TracedDriver::finish(const core::Experiment& spec,
                                 const sim::Execution& exec,
                                 std::int64_t windows) {
  Span s(tracer, SpanKind::kVerdict, 1);
  const bool agreement = core::check_agreement(exec);
  const bool validity = core::check_validity(exec, spec.inputs);
  const TrialRecord r =
      record_of(exec, spec.inputs, windows, agreement, validity,
                windows == 0 || windows == exec.window());
  tally.add(r);
  return r;
}

// Mirrors core::Runner::run_window + sim::run_until_{first_decision,
// all_decided}.
TrialRecord TracedDriver::window_trial(const core::Experiment& spec,
                                       const core::WindowAdversaryFactory& make,
                                       std::uint64_t seed) {
  std::unique_ptr<sim::WindowAdversary> adv;
  {
    Span s(tracer, SpanKind::kAdvSetup);
    adv = make(seed);
  }
  sim::Execution& exec = prepare(spec, seed);
  const bool until_all = spec.stop == core::StopCondition::kAllDecided;
  std::int64_t w = 0;
  while (w < spec.budget &&
         (until_all ? !exec.all_live_decided() : exec.decided_count() == 0)) {
    run_window(exec, *adv, spec.t);
    ++w;
  }
  const TrialRecord r = finish(spec, exec, w);
  Span s(tracer, SpanKind::kAdvSetup);
  adv.reset();
  return r;
}

// Mirrors core::Runner::run_async + sim::run_async.
TrialRecord TracedDriver::async_trial(const core::Experiment& spec,
                                      const core::AsyncAdversaryFactory& make,
                                      std::uint64_t seed) {
  std::unique_ptr<sim::AsyncAdversary> adv;
  {
    Span s(tracer, SpanKind::kAdvSetup);
    adv = make(seed);
  }
  sim::Execution& exec = prepare(spec, seed);
  const int n = exec.n();
  const int t = spec.t;
  const bool until_all = spec.stop == core::StopCondition::kAllDecided;
  const auto done = [&] {
    return until_all ? exec.all_live_decided() : exec.decided_count() > 0;
  };
  {
    Span s(tracer, SpanKind::kAdvSetup);
    adv->prepare(n, t);
  }
  {
    Span run(tracer, SpanKind::kAsyncRun);
    for (sim::ProcId p = 0; p < n; ++p) exec.sending_step(p);
    std::int64_t deliveries = 0;
    while (!done() && deliveries < spec.budget) {
      const sim::AsyncAction action = [&] {
        Span s(tracer, SpanKind::kSchedule, 1);
        return adv->next(exec);
      }();
      if (std::holds_alternative<sim::StopAction>(action)) break;
      if (const auto* c = std::get_if<sim::CrashAction>(&action)) {
        require(exec.crashed_count() < t,
                "async adversary exceeded its crash budget t");
        exec.crash(c->p);
        ++sched_crash;
        continue;
      }
      const auto& d = std::get<sim::DeliverAction>(action);
      require(exec.buffer().is_pending(d.id),
              "async adversary delivered a non-pending message");
      const sim::ProcId receiver = exec.buffer().get(d.id).receiver;
      require(!exec.crashed(receiver),
              "async adversary delivered to a crashed processor");
      exec.receiving_step(d.id);
      ++deliveries;
      ++sched_deliver;
      exec.sending_step(receiver);
    }
    run.set_items(deliveries);
  }
  const TrialRecord r = finish(spec, exec, 0);
  Span s(tracer, SpanKind::kAdvSetup);
  adv.reset();
  return r;
}

}  // namespace pb
