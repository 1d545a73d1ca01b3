// Trial drivers: the untraced path through the library's public Runner,
// and the traced outside-in replay of the same trial through Execution's
// public steps (run_acceptable_window / run_async re-driven call by call,
// with a span around each call into a module).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common.hpp"
#include "core/checker.hpp"
#include "core/experiment.hpp"
#include "lens/trace.hpp"
#include "tracer.hpp"

namespace pb {

/// Adversary menus, constructed per trial from the trial seed (the same
/// derivations the campaign runner uses for these names).
[[nodiscard]] aa::core::WindowAdversaryFactory window_adversary(
    const std::string& name, int t);
[[nodiscard]] aa::core::AsyncAdversaryFactory async_adversary(
    const std::string& name, int t);

/// One trial through core::Runner with the caller's reused scratch.
[[nodiscard]] TrialRecord run_window_trial(
    const aa::core::Runner& runner,
    const aa::core::WindowAdversaryFactory& make, std::uint64_t seed,
    aa::core::WorkerScratch& scratch);
[[nodiscard]] TrialRecord run_async_trial(
    const aa::core::Runner& runner, const aa::core::AsyncAdversaryFactory& make,
    std::uint64_t seed, aa::core::WorkerScratch& scratch);

/// Outside-in replay of Runner::run_window / Runner::run_async. Every
/// trial it runs must produce the TrialRecord the Runner path produces for
/// the same spec, adversary and seed.
class TracedDriver {
 public:
  [[nodiscard]] TrialRecord window_trial(
      const aa::core::Experiment& spec,
      const aa::core::WindowAdversaryFactory& make, std::uint64_t seed);
  [[nodiscard]] TrialRecord async_trial(
      const aa::core::Experiment& spec,
      const aa::core::AsyncAdversaryFactory& make, std::uint64_t seed);

  /// The lens capture of the last trial (spec.lens set), else null.
  [[nodiscard]] const aa::lens::WindowTrace* lens_trace() const {
    return trace_ ? &*trace_ : nullptr;
  }

  Tracer tracer;
  /// Tally of every trial replayed so far.
  Tally tally;
  /// Exact plan and scheduler counts of the same trials.
  std::int64_t plan_updated = 0;
  std::int64_t plan_reused = 0;
  std::int64_t validations = 0;
  std::int64_t sched_deliver = 0;
  std::int64_t sched_crash = 0;

 private:
  aa::sim::Execution& prepare(const aa::core::Experiment& spec,
                              std::uint64_t seed);
  void run_window(aa::sim::Execution& exec, aa::sim::WindowAdversary& adv,
                  int t);
  TrialRecord finish(const aa::core::Experiment& spec,
                     const aa::sim::Execution& exec, std::int64_t windows);

  std::optional<aa::sim::Execution> exec_;
  std::optional<aa::lens::WindowTrace> trace_;
};

}  // namespace pb
