#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "adversary/censor.hpp"
#include "adversary/chaos.hpp"
#include "core/campaign.hpp"
#include "drivers.hpp"
#include "lens/accountability.hpp"
#include "protocols/factory.hpp"

namespace pb {

namespace core = aa::core;
namespace protocols = aa::protocols;

namespace {

// ------------------------------------------------------------ metric lists

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, in this order.
const std::vector<MetricSpec> kEndToEnd = {
    {"trials_per_s", "trials/s"}, {"deliveries_per_s", "msgs/s"},
    {"trial_ms_p50", "ms"},       {"trial_ms_p90", "ms"},
    {"setup_s", "s"},             {"peak_rss_mb", "MiB"},
};

/// Printed by every traced run, in this order (0 where the workload does
/// not exercise the layer).
const std::vector<MetricSpec> kPerLayer = {
    {"sim.windows_per_s", "windows/s"},
    {"sim.adversarial_to_splice_windows_ratio", "ratio"},
    {"sim.publish_ns_per_msg", "ns/msg"},
    {"sim.deliver_ns_per_msg", "ns/msg"},
    {"sim.sweep_ns_per_window", "ns/window"},
    {"sim.validate_ns_per_window", "ns/window"},
    {"sim.async_step_ns_per_delivery", "ns/msg"},
    {"adversary.plan_ns_per_window", "ns/window"},
    {"adversary.reuse_share", "share"},
    {"adversary.schedule_ns_per_delivery", "ns/msg"},
    {"protocols.receive_ns_per_msg", "ns/msg"},
    {"protocols.reset_ns", "ns"},
    {"core.trial_setup_us", "us"},
    {"core.pool_efficiency", "share"},
    {"lens.overhead_ratio", "ratio"},
    {"lens.fold_us_per_trial", "us"},
    {"sim.self_share", "share"},
    {"adversary.self_share", "share"},
    {"protocols.self_share", "share"},
    {"core.self_share", "share"},
    {"lens.self_share", "share"},
    {"trace.unattributed_share", "share"},
    {"trace.overhead", "ratio"},
    {"count.published", "count"},
    {"count.delivered", "count"},
    {"count.dropped", "count"},
    {"count.windows", "count"},
    {"count.resets", "count"},
    {"count.plan_updated", "count"},
    {"count.plan_reused", "count"},
    {"count.validations", "count"},
    {"count.sched_deliver", "count"},
    {"count.sched_crash", "count"},
};

/// Metric values of one run, emitted in the order of a MetricSpec list;
/// metrics a workload never sets are reported as 0.
class MetricValues {
 public:
  explicit MetricValues(const std::vector<MetricSpec>& specs) : specs_(specs) {}

  void set(const std::string& name, double value) {
    for (const MetricSpec& m : specs_) {
      if (name == m.name) {
        values_[name] = value;
        return;
      }
    }
    throw std::logic_error("perfbench: unlisted metric " + name);
  }

  void emit(Result& res) const {
    for (const MetricSpec& m : specs_) {
      const auto it = values_.find(m.name);
      res.add(m.name, m.unit, it == values_.end() ? 0.0 : it->second);
    }
  }

 private:
  const std::vector<MetricSpec>& specs_;
  std::map<std::string, double> values_;
};

/// First seed of the set-up's warm-up trials (the same in every run).
constexpr std::uint64_t kWarmUpSeed = 0x5eed0000ULL;
/// Seed of the check block (the same in every run), and the adversary
/// cycles a trial workload's check block runs.
constexpr std::uint64_t kCheckSeed = 1;
constexpr std::int64_t kCheckCycles = 2;
/// An untraced run repeats one block of trials (or campaigns) in passes
/// and times each item by its best pass (see BestTimes): kPasses passes on
/// campaign-lens, TrialWorkload::passes on the others. A traced run
/// alternates kTracedPasses untraced and traced passes.
constexpr int kPasses = 10;
constexpr int kTracedPasses = 3;

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
  // of the process image that exec replaced (the launching interpreter).
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("perfbench: no VmHWM in /proc/self/status");
}

/// Builds a fresh set-up and records how long it took from `start`. An
/// untraced run sets up afresh before each of its passes and reports the
/// best (minimum) of those samples as setup_s, for the reason BestTimes
/// gives. The first set-up is timed from process start.
template <typename T, typename Build>
std::unique_ptr<T> timed_set_up(Clock::time_point start,
                                std::vector<double>& samples,
                                const Build& build) {
  std::unique_ptr<T> env = build();
  samples.push_back(seconds_between(start, Clock::now()));
  return env;
}

// ---------------------------------------------------- trial workloads

enum class Model { kWindow, kAsync };

struct Combo {
  int spec;
  const char* adversary;
};

/// A closed loop of Runner trials from one thread. Trial i runs
/// combo cycle[i % cycle.size()] with seed mix64(seed) + i.
struct TrialWorkload {
  const char* name;
  Model model;
  std::vector<core::Experiment> specs;
  std::vector<Combo> cycle;
  /// Trials per second on the reference host; sizes a run so that it
  /// measures about --seconds there. The trial count is fixed by
  /// (seed, seconds), which keeps the tally deterministic.
  double nominal_trials_per_s;
  /// Budget of the warm-up trials that grow the scratch arenas.
  std::int64_t warmup_budget;
  /// Passes of an untraced run. More passes give each trial more samples
  /// spread over the run, fewer give a larger, more varied block.
  int passes;
};

core::Experiment experiment(protocols::ProtocolKind kind, int n, int t,
                            std::int64_t budget) {
  core::Experiment e;
  e.kind = kind;
  e.inputs = protocols::split_inputs(n, 0.5);
  e.t = t;
  e.budget = budget;
  e.stop = core::StopCondition::kAllDecided;
  return e;
}

const std::vector<TrialWorkload>& trial_workloads() {
  using protocols::ProtocolKind;
  static const std::vector<TrialWorkload> kWorkloads = {
      {"window-splice",
       Model::kWindow,
       {experiment(ProtocolKind::Reset, 32, 5, 400)},
       {{0, "fair"}, {0, "silencer"}, {0, "reset-storm"}},
       330.0,
       60,
       20},
      // Three split-keeper trials per random one, and a budget most
      // split-keeper trials reach (about 9 in 10 at n = 32): about two
      // thirds of all trials then run the full budget, so trial_ms_p50 and
      // _p90 both fall inside that cluster instead of on the edge between
      // the two adversaries, and the run's trial mix varies little with
      // the seed.
      {"window-adversarial",
       Model::kWindow,
       {experiment(ProtocolKind::Reset, 32, 5, 500)},
       {{0, "split-keeper"},
        {0, "split-keeper"},
        {0, "split-keeper"},
        {0, "random"}},
       28.0,
       100,
       20},
      {"async-crash",
       Model::kAsync,
       {experiment(ProtocolKind::BenOr, 16, 2, 20000),
        experiment(ProtocolKind::Bracha, 16, 2, 20000)},
       {{0, "random-async"},
        {0, "fixed-crash"},
        {0, "async-split"},
        {1, "random-async"},
        {1, "fixed-crash"},
        {1, "async-split"}},
       7.4,
       2000,
       kPasses},
  };
  return kWorkloads;
}

const TrialWorkload* find_trial_workload(const std::string& name) {
  for (const TrialWorkload& w : trial_workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// Trials per pass: a run's worth of trials on the reference host split
/// into w.passes, rounded up to whole adversary cycles.
std::int64_t block_size(const TrialWorkload& w, double seconds) {
  const auto cycle = static_cast<std::int64_t>(w.cycle.size());
  const auto n = static_cast<std::int64_t>(
      std::ceil(seconds * w.nominal_trials_per_s / w.passes));
  return std::max<std::int64_t>(1, (n + cycle - 1) / cycle) * cycle;
}

/// Specs, runners and adversary factories of one trial workload.
class TrialSet {
 public:
  TrialSet(const TrialWorkload& w, std::uint64_t seed)
      : w_(w), base_(mix64(seed)) {
    for (const core::Experiment& spec : w.specs) {
      runners_.emplace_back(spec);
      core::Experiment warm = spec;
      warm.budget = std::min(spec.budget, w.warmup_budget);
      warm_runners_.emplace_back(warm);
    }
    for (const Combo& c : w.cycle) {
      const int t = w.specs[static_cast<std::size_t>(c.spec)].t;
      if (w.model == Model::kWindow) {
        window_.push_back(window_adversary(c.adversary, t));
      } else {
        async_.push_back(async_adversary(c.adversary, t));
      }
    }
  }

  [[nodiscard]] const TrialWorkload& workload() const { return w_; }

  [[nodiscard]] TrialRecord run(std::int64_t i,
                                core::WorkerScratch& scratch) const {
    return run_on(runners_, combo(i), base_ + static_cast<std::uint64_t>(i),
                  scratch);
  }

  /// One short trial per combo. The warm-up seeds are fixed, not drawn
  /// from the workload seed, so every run's set-up does the same work.
  void warm_up(core::WorkerScratch& scratch) const {
    for (std::size_t k = 0; k < w_.cycle.size(); ++k) {
      (void)run_on(warm_runners_, k, kWarmUpSeed + k, scratch);
    }
  }

  [[nodiscard]] TrialRecord replay(std::int64_t i, TracedDriver& d) const {
    const std::size_t k = combo(i);
    const core::Experiment& spec =
        w_.specs[static_cast<std::size_t>(w_.cycle[k].spec)];
    const std::uint64_t seed = base_ + static_cast<std::uint64_t>(i);
    return w_.model == Model::kWindow ? d.window_trial(spec, window_[k], seed)
                                      : d.async_trial(spec, async_[k], seed);
  }

 private:
  [[nodiscard]] std::size_t combo(std::int64_t i) const {
    return static_cast<std::size_t>(i) % w_.cycle.size();
  }

  TrialRecord run_on(const std::vector<core::Runner>& runners, std::size_t k,
                     std::uint64_t seed, core::WorkerScratch& scratch) const {
    const core::Runner& r =
        runners[static_cast<std::size_t>(w_.cycle[k].spec)];
    return w_.model == Model::kWindow
               ? run_window_trial(r, window_[k], seed, scratch)
               : run_async_trial(r, async_[k], seed, scratch);
  }

  const TrialWorkload& w_;
  std::uint64_t base_;
  std::vector<core::Runner> runners_;
  std::vector<core::Runner> warm_runners_;
  std::vector<core::WindowAdversaryFactory> window_;
  std::vector<core::AsyncAdversaryFactory> async_;
};

struct TrialEnv {
  TrialEnv(const TrialWorkload& w, std::uint64_t seed) : set(w, seed) {
    set.warm_up(scratch);
  }
  TrialSet set;
  core::WorkerScratch scratch;
};

/// One pass of the closed loop over trials [0, count): records, per-trial
/// wall times and the pass wall time.
struct Pass {
  std::vector<TrialRecord> records;
  std::vector<double> trial_ms;
  double wall_s = 0.0;
  Tally tally;
};

Pass run_pass(TrialEnv& env, std::int64_t count, Result& res) {
  Pass out;
  out.records.resize(static_cast<std::size_t>(count));
  out.trial_ms.resize(static_cast<std::size_t>(count));
  std::vector<bool> threw(static_cast<std::size_t>(count), false);
  const Clock::time_point t0 = Clock::now();
  for (std::int64_t i = 0; i < count; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const Clock::time_point s = Clock::now();
    try {
      out.records[idx] = env.set.run(i, env.scratch);
    } catch (const std::exception& e) {
      res.fail(1, "trial " + std::to_string(i) + " threw: " + e.what());
      threw[idx] = true;
      out.records[idx].library_agrees = false;  // never equals a replay
    }
    out.trial_ms[idx] =
        std::chrono::duration<double, std::milli>(Clock::now() - s).count();
  }
  out.wall_s = seconds_between(t0, Clock::now());
  res.attempted += count;
  for (std::int64_t i = 0; i < count; ++i) {
    const TrialRecord& r = out.records[static_cast<std::size_t>(i)];
    out.tally.add(r);
    if (threw[static_cast<std::size_t>(i)]) continue;  // already failed
    if (!r.library_agrees) {
      res.fail(1, "trial " + std::to_string(i) +
                      ": library verdict or counters disagree with the "
                      "recomputation");
    } else if (!r.ok()) {
      res.fail(1, "trial " + std::to_string(i) +
                      " violated agreement or validity");
    }
  }
  return out;
}

/// Requires `pass` to repeat `first` trial by trial.
void compare_passes(const std::vector<TrialRecord>& first, const Pass& pass,
                    const char* what, Result& res) {
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (pass.records[i] != first[i]) {
      res.fail(1, std::string(what) + ": trial " + std::to_string(i) +
                      " gave another record than the first pass");
    }
  }
}

/// Re-runs a deterministic sample of trials (every stride-th, stride
/// coprime with the combo cycle so every combo is sampled) on a fresh
/// Execution and requires the same record.
void rerun_check(const TrialSet& set, const std::vector<TrialRecord>& records,
                 Result& res) {
  const auto cycle = static_cast<std::int64_t>(set.workload().cycle.size());
  std::int64_t stride = 10;
  while (std::gcd(stride, cycle) != 1) ++stride;
  const auto count = static_cast<std::int64_t>(records.size());
  for (std::int64_t i = 0; i < count; i += stride) {
    core::WorkerScratch fresh;
    try {
      if (set.run(i, fresh) != records[static_cast<std::size_t>(i)]) {
        res.fail(1, "trial " + std::to_string(i) +
                        ": re-run on a fresh Execution gave another record");
      }
    } catch (const std::exception& e) {
      res.fail(1, "re-run of trial " + std::to_string(i) + " threw: " +
                      e.what());
    }
  }
}

void print_tally(const char* label, const Tally& t) {
  std::printf("%s: %s\n", label, t.str().c_str());
}

/// Each workload's check-block tally, pinned. The check block is trials
/// [0, kCheckCycles x cycle length) at seed kCheckSeed (campaign-lens:
/// campaign 0 at kCheckSeed), whatever --seed and --seconds are. Repeats
/// and replays only show that a run agrees with itself; this pin also fails
/// a change that alters what a workload simulates the same way every time,
/// which would otherwise read as a speed change. A deliberate change to
/// the simulation updates these from the tally the failing run prints.
const std::map<std::string, Tally>& pinned_tallies() {
  static const std::map<std::string, Tally> kPinned = {
      {"window-splice",
       {.trials = 6, .decided = 6, .all_decided = 6, .windows = 425,
        .deliveries = 397760, .published = 407040, .dropped = 9280,
        .resets = 890, .violations = 0}},
      {"window-adversarial",
       {.trials = 8, .decided = 2, .all_decided = 2, .windows = 3409,
        .deliveries = 3391967, .published = 3451168, .dropped = 59201,
        .resets = 1245, .violations = 0}},
      {"async-crash",
       {.trials = 12, .decided = 10, .all_decided = 6, .windows = 0,
        .deliveries = 160601, .published = 191536, .dropped = 0,
        .resets = 0, .violations = 0}},
      {"campaign-lens",
       {.trials = 192, .decided = 129, .all_decided = 128, .windows = 0,
        .deliveries = 7031462, .published = 7823520, .dropped = 792058,
        .resets = 0, .violations = 0}},
  };
  return kPinned;
}

/// Compares a check block's tally with its pin; a mismatch fails every
/// trial of the block.
void check_pinned(const std::string& workload, const Tally& got,
                  Result& res) {
  print_tally("check block", got);
  res.attempted += got.trials;
  const auto it = pinned_tallies().find(workload);
  if (it == pinned_tallies().end() || got != it->second) {
    res.fail(got.trials, "check block of " + workload +
                             ": tally differs from the pinned one" +
                             (it == pinned_tallies().end()
                                  ? std::string(" (none pinned)")
                                  : ": " + it->second.str()));
  }
}

/// Runs a trial workload's check block on a fresh scratch.
void check_trial_block(const TrialWorkload& w, Result& res) {
  const TrialSet set(w, kCheckSeed);
  core::WorkerScratch scratch;
  const std::int64_t count =
      kCheckCycles * static_cast<std::int64_t>(w.cycle.size());
  Tally tally;
  for (std::int64_t i = 0; i < count; ++i) {
    try {
      tally.add(set.run(i, scratch));
    } catch (const std::exception& e) {
      res.attempted += count;
      res.fail(count, "check block trial " + std::to_string(i) +
                          " threw: " + e.what());
      return;
    }
  }
  check_pinned(w.name, tally, res);
}

void set_layer_metrics(const TracedDriver& d, double traced_wall_s,
                       MetricValues& v) {
  const Tracer& tr = d.tracer;
  const Tally& c = d.tally;
  const auto self = [&](SpanKind k) {
    return static_cast<double>(tr.stat(k).self_ns());
  };
  const auto items = [&](SpanKind k) {
    return static_cast<double>(tr.stat(k).items);
  };
  const auto windows = static_cast<double>(c.windows);
  v.set("sim.publish_ns_per_msg",
        ratio(self(SpanKind::kPublish), items(SpanKind::kPublish)));
  v.set("sim.deliver_ns_per_msg",
        ratio(self(SpanKind::kDeliver), items(SpanKind::kDeliver)));
  v.set("sim.sweep_ns_per_window", ratio(self(SpanKind::kSweep), windows));
  v.set("sim.validate_ns_per_window",
        ratio(self(SpanKind::kValidate), windows));
  v.set("sim.async_step_ns_per_delivery",
        ratio(self(SpanKind::kAsyncRun), items(SpanKind::kAsyncRun)));
  v.set("adversary.plan_ns_per_window", ratio(self(SpanKind::kPlan), windows));
  v.set("adversary.reuse_share",
        ratio(static_cast<double>(d.plan_reused),
              static_cast<double>(d.plan_reused + d.plan_updated)));
  v.set("adversary.schedule_ns_per_delivery",
        ratio(self(SpanKind::kSchedule), static_cast<double>(d.sched_deliver)));
  v.set("protocols.receive_ns_per_msg",
        ratio(self(SpanKind::kProtoReceive), items(SpanKind::kProtoReceive)));
  v.set("protocols.reset_ns",
        ratio(self(SpanKind::kProtoReset), items(SpanKind::kProtoReset)));
  v.set("core.trial_setup_us",
        ratio(self(SpanKind::kTrialSetup), static_cast<double>(c.trials)) /
            1e3);
  v.set("lens.fold_us_per_trial",
        ratio(self(SpanKind::kLensFold), static_cast<double>(c.trials)) / 1e3);

  const double wall_ns = traced_wall_s * 1e9;
  double attributed = 0.0;
  std::printf("layer self time of %.3f s traced wall:", traced_wall_s);
  for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
    const auto layer = static_cast<Layer>(l);
    const auto ns = static_cast<double>(tr.layer_self_ns(layer));
    attributed += ns;
    v.set(std::string(layer_name(layer)) + ".self_share", ratio(ns, wall_ns));
    std::printf(" %s=%.3f s", layer_name(layer), ns / 1e9);
  }
  std::printf("\n");
  v.set("trace.unattributed_share", 1.0 - ratio(attributed, wall_ns));

  v.set("count.published", static_cast<double>(c.published));
  v.set("count.delivered", static_cast<double>(c.deliveries));
  v.set("count.dropped", static_cast<double>(c.dropped));
  v.set("count.windows", windows);
  v.set("count.resets", static_cast<double>(c.resets));
  v.set("count.plan_updated", static_cast<double>(d.plan_updated));
  v.set("count.plan_reused", static_cast<double>(d.plan_reused));
  v.set("count.validations", static_cast<double>(d.validations));
  v.set("count.sched_deliver", static_cast<double>(d.sched_deliver));
  v.set("count.sched_crash", static_cast<double>(d.sched_crash));
}

/// Per-item best (minimum) time over repeated passes of the same block.
/// Host contention only ever slows an item down, so its best time over the
/// passes is the steadiest estimate of what the code costs.
class BestTimes {
 public:
  void add(const std::vector<double>& times) {
    if (best_.empty()) {
      best_ = times;
      return;
    }
    for (std::size_t i = 0; i < best_.size(); ++i) {
      best_[i] = std::min(best_[i], times[i]);
    }
  }
  [[nodiscard]] double sum() const {
    return std::accumulate(best_.begin(), best_.end(), 0.0);
  }
  [[nodiscard]] const std::vector<double>& values() const { return best_; }

 private:
  std::vector<double> best_;
};

/// Untraced windows/s of `w`'s block, best of kTracedPasses passes,
/// measured in this process (the other half of the same-run ratio).
double best_windows_per_s(const TrialWorkload& w, const Options& opt,
                          Result& res) {
  TrialEnv env(w, opt.seed);
  BestTimes best;
  Tally tally;
  for (int r = 0; r < kTracedPasses; ++r) {
    const Pass pass = run_pass(env, block_size(w, opt.seconds), res);
    best.add(pass.trial_ms);
    tally = pass.tally;
  }
  return ratio(static_cast<double>(tally.windows), best.sum() / 1e3);
}

Result run_trials(const TrialWorkload& w, const Options& opt) {
  Result res;
  const auto build = [&] { return std::make_unique<TrialEnv>(w, opt.seed); };
  const std::int64_t block = block_size(w, opt.seconds);
  std::printf("block: %lld trials, %d passes\n", static_cast<long long>(block),
              opt.trace ? 2 * kTracedPasses : w.passes);

  if (!opt.trace) {
    std::vector<TrialRecord> first;
    Tally tally;
    BestTimes best;
    std::vector<double> walls;
    std::vector<double> setups;
    std::unique_ptr<TrialEnv> env;
    for (int r = 0; r < w.passes; ++r) {
      env = timed_set_up<TrialEnv>(r == 0 ? opt.process_start : Clock::now(),
                                   setups, build);
      Pass pass = run_pass(*env, block, res);
      if (r == 0) {
        first = std::move(pass.records);
        tally = pass.tally;
      } else {
        compare_passes(first, pass, "pass repeat", res);
      }
      best.add(pass.trial_ms);
      walls.push_back(pass.wall_s);
    }
    rerun_check(env->set, first, res);
    check_trial_block(w, res);
    const double best_s = best.sum() / 1e3;
    print_tally("tally (per pass)", tally);
    std::printf("pass wall: min %.4f s, median %.4f s; best-of-%d block time "
                "%.4f s\n",
                *std::min_element(walls.begin(), walls.end()),
                quantile(walls, 0.5), w.passes, best_s);
    if (w.model == Model::kWindow) {
      std::printf("windows_per_s = %.1f windows/s (not gated)\n",
                  ratio(static_cast<double>(tally.windows), best_s));
    }
    std::printf("trial_ms samples = %zu (best of %d per trial)\n",
                best.values().size(), w.passes);
    std::vector<double> trial_ms = best.values();
    MetricValues v(kEndToEnd);
    v.set("trials_per_s", ratio(static_cast<double>(block), best_s));
    v.set("deliveries_per_s",
          ratio(static_cast<double>(tally.deliveries), best_s));
    v.set("trial_ms_p50", quantile(trial_ms, 0.5));
    v.set("trial_ms_p90", quantile(trial_ms, 0.9));
    v.set("setup_s", *std::min_element(setups.begin(), setups.end()));
    v.set("peak_rss_mb", peak_rss_mb());
    v.emit(res);
    return res;
  }

  // Traced run: untraced and traced passes over the block alternate. Every
  // traced replay must reproduce the untraced records (differential guard).
  const auto env = build();
  TracedDriver d;
  std::vector<TrialRecord> first;
  Tally untraced_tally;
  BestTimes untraced_best;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  for (int r = 0; r < kTracedPasses; ++r) {
    Pass pass = run_pass(*env, block, res);
    untraced_s += pass.wall_s;
    untraced_best.add(pass.trial_ms);
    if (r == 0) {
      first = std::move(pass.records);
      untraced_tally = pass.tally;
    } else {
      compare_passes(first, pass, "pass repeat", res);
    }
    Tally traced_tally;
    const Clock::time_point t0 = Clock::now();
    for (std::int64_t i = 0; i < block; ++i) {
      TrialRecord rec;
      try {
        rec = env->set.replay(i, d);
      } catch (const std::exception& e) {
        res.fail(1,
                 "traced trial " + std::to_string(i) + " threw: " + e.what());
        continue;
      }
      traced_tally.add(rec);
      if (rec != first[static_cast<std::size_t>(i)]) {
        res.fail(1, "differential guard: traced replay of trial " +
                        std::to_string(i) + " differs from the Runner run");
      }
    }
    traced_s += seconds_between(t0, Clock::now());
    res.attempted += block;
    if (r == 0) {
      print_tally("tally (untraced)", untraced_tally);
      print_tally("tally (traced)  ", traced_tally);
    }
  }

  MetricValues v(kPerLayer);
  set_layer_metrics(d, traced_s, v);
  const double windows_per_s =
      ratio(static_cast<double>(untraced_tally.windows),
            untraced_best.sum() / 1e3);
  v.set("sim.windows_per_s", windows_per_s);
  v.set("trace.overhead", ratio(traced_s, untraced_s));
  if (std::string(w.name) == "window-adversarial") {
    const double splice = best_windows_per_s(
        *find_trial_workload("window-splice"), opt, res);
    v.set("sim.adversarial_to_splice_windows_ratio",
          ratio(windows_per_s, splice));
  }
  check_trial_block(w, res);
  v.emit(res);
  return res;
}

// ------------------------------------------------------ campaign-lens

constexpr int kCampaignTrialsPerCell = 16;
constexpr int kCampaignChunk = 4;
/// Campaigns per second on the reference host (192 trials each).
constexpr double kNominalCampaignsPerS = 1.6;

core::CampaignConfig campaign_config(int threads, bool lens) {
  core::CampaignConfig c;
  c.name = "perfbench";
  c.model = core::CampaignModel::kWindow;
  c.n = {32};
  c.t = {5};
  c.protocols = {"reset", "forgetful"};
  c.adversaries = {"fair", "random"};
  c.chaos_plan = {"none", "censor-heavy", "resets"};
  c.split = 0.5;
  c.trials = kCampaignTrialsPerCell;
  c.budget = 400;
  c.threads = threads;
  c.chunk_size = kCampaignChunk;
  c.lens = lens;
  c.censor_target = 0;
  return c;
}

int campaign_threads() {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp<long>(nproc, 1, 2));
}

struct CampaignEnv {
  explicit CampaignEnv(int threads)
      : ctx(aa::ParallelConfig{.threads = threads,
                                .chunk_size = kCampaignChunk}) {}
  core::CampaignContext ctx;
};

/// Everything deterministic a campaign produced, plus its timings.
struct CampaignRun {
  std::string summary;
  std::vector<std::string> cells;
  std::vector<std::string> lens;
  /// Trials, decided runs, all-decided runs and violations from the
  /// summary; deliveries, published and dropped from the lens reports.
  /// Windows and resets are not reported by the campaign API and stay 0.
  Tally tally;
  std::int64_t bad_cells = 0;
  std::vector<double> cell_ms_per_trial;
  core::CampaignResult result;
};

std::uint64_t campaign_seed(std::uint64_t seed, std::int64_t k) {
  const std::uint64_t block =
      12ULL * static_cast<std::uint64_t>(kCampaignTrialsPerCell);
  return (mix64(seed) >> 16) + static_cast<std::uint64_t>(k) * block;
}

CampaignRun run_campaign_once(CampaignEnv& env, std::uint64_t seed,
                              bool lens) {
  core::CampaignConfig config =
      campaign_config(env.ctx.parallel().resolved_threads(), lens);
  config.seed = seed;
  CampaignRun run;
  run.result = core::run_campaign(config, env.ctx);
  const core::CampaignResult& r = run.result;
  run.summary = core::campaign_summary_json(r);
  run.tally.trials = r.summary.trials;
  run.tally.decided = r.summary.decided_runs;
  run.tally.all_decided = r.summary.all_decided_runs;
  run.tally.violations =
      r.summary.agreement_violations + r.summary.validity_violations;
  for (const core::CampaignCell& cell : r.cells) {
    run.cells.push_back(core::campaign_cell_json(config, cell));
    if (cell.failed || cell.report.trials != config.trials) ++run.bad_cells;
    run.cell_ms_per_trial.push_back(cell.wall_ms / config.trials);
    if (lens) {
      run.lens.push_back(core::latency_report_json(cell.lens_report));
      for (const auto& s : cell.lens_report.senders) {
        run.tally.deliveries += s.delivered;
        run.tally.published += s.sent;
        run.tally.dropped += s.suppressed;
      }
    }
  }
  return run;
}

void check_campaign(const CampaignRun& run, std::int64_t k, Result& res) {
  const std::string id = "campaign " + std::to_string(k);
  if (run.bad_cells > 0) {
    res.fail(run.bad_cells * kCampaignTrialsPerCell,
             id + ": cells failed or were cancelled");
  }
  if (run.tally.violations > 0) {
    res.fail(run.tally.violations, id + " violated agreement or validity");
  }
}

/// Byte-identity of two runs of the same campaign (the campaign engine's
/// contract across thread counts and lens on/off).
void compare_campaigns(const CampaignRun& a, const CampaignRun& b,
                       bool compare_lens, const std::string& what,
                       Result& res) {
  const bool same = a.summary == b.summary && a.cells == b.cells &&
                    (!compare_lens || a.lens == b.lens);
  if (!same) res.fail(a.tally.trials, what + ": campaign reports differ");
}

/// The chaos presets of the campaign runner's chaos_plan axis.
aa::sim::FaultPlan chaos_preset(const std::string& name) {
  aa::sim::FaultPlan fp;
  if (name == "censor-heavy") fp.censor_prob = 0.9;
  if (name == "resets") fp.reset_prob = 0.5;
  return fp;
}

/// Outside-in replay of one campaign's cells, trial by trial on this
/// thread, with the lens fold traced. Every cell's verdict tallies and
/// lens report must equal the campaign's.
void replay_campaign(const CampaignRun& run, TracedDriver& d, Result& res) {
  const core::CampaignConfig& config = run.result.config;
  for (const core::CampaignCell& cell : run.result.cells) {
    core::Experiment spec = experiment(
        cell.protocol == "reset" ? protocols::ProtocolKind::Reset
                                 : protocols::ProtocolKind::Forgetful,
        cell.n, cell.t, config.budget);
    spec.memory_k = cell.memory_k;
    spec.lens = true;
    core::WindowAdversaryFactory make =
        window_adversary(cell.adversary, cell.t);
    const aa::sim::FaultPlan fp = chaos_preset(cell.chaos_plan);
    if (fp.enabled()) {
      make = [inner = std::move(make), fp](std::uint64_t s)
          -> std::unique_ptr<aa::sim::WindowAdversary> {
        return std::make_unique<aa::adversary::ChaosWindowAdversary>(inner(s),
                                                                     fp, s);
      };
    }
    const aa::sim::ProcId target = config.censor_target;
    make = [inner = std::move(make), target](std::uint64_t s)
        -> std::unique_ptr<aa::sim::WindowAdversary> {
      return std::make_unique<aa::adversary::TargetedCensorAdversary>(
          inner(s), target);
    };

    core::MeasureOneAccumulator acc;
    aa::lens::LatencyAccumulator lat;
    for (int i = 0; i < config.trials; ++i) {
      const std::uint64_t s = cell.seed0 + static_cast<std::uint64_t>(i);
      const TrialRecord r = d.window_trial(spec, make, s);
      core::TrialVerdict v;
      v.agreement = r.agreement;
      v.validity = r.validity;
      v.decided = r.decided;
      v.all_decided = r.all_decided;
      v.metric = r.windows_to_first;
      acc.add(s, v);
      Span fold(d.tracer, SpanKind::kLensFold, 1);
      lat.add(*d.lens_trace());
    }
    core::CampaignCell replayed = cell;
    replayed.report = acc.finalize();
    replayed.metric_sum = acc.metric_sum();
    if (core::campaign_cell_json(config, replayed) !=
            core::campaign_cell_json(config, cell) ||
        core::latency_report_json(lat.finalize(cell.t)) !=
            core::latency_report_json(cell.lens_report)) {
      res.fail(config.trials, "differential guard: traced replay of cell " +
                                  std::to_string(cell.index) +
                                  " differs from the campaign");
    }
  }
}

/// One pass over campaigns [0, count): the runs, each campaign's wall time
/// and each cell's wall time per trial.
struct CampaignPass {
  std::vector<CampaignRun> runs;
  std::vector<double> campaign_s;
  std::vector<double> cell_ms;
  Tally tally;
};

CampaignPass run_campaign_pass(CampaignEnv& env, const Options& opt,
                               std::int64_t count, bool lens, Result& res) {
  CampaignPass pass;
  for (std::int64_t k = 0; k < count; ++k) {
    const Clock::time_point s = Clock::now();
    CampaignRun run = run_campaign_once(env, campaign_seed(opt.seed, k), lens);
    pass.campaign_s.push_back(seconds_between(s, Clock::now()));
    check_campaign(run, k, res);
    pass.tally.add(run.tally);
    pass.cell_ms.insert(pass.cell_ms.end(), run.cell_ms_per_trial.begin(),
                        run.cell_ms_per_trial.end());
    pass.runs.push_back(std::move(run));
  }
  res.attempted += pass.tally.trials;
  return pass;
}

/// Runs `passes` passes, requiring every pass to repeat the first one's
/// reports. Returns the first pass; `best` gets each campaign's best time.
CampaignPass repeat_campaign_passes(
    const std::function<CampaignEnv&(int pass)>& env_for_pass,
    const Options& opt, std::int64_t count, bool lens, int passes,
    BestTimes& best, BestTimes* best_cells, Result& res) {
  CampaignPass first;
  for (int r = 0; r < passes; ++r) {
    CampaignPass pass =
        run_campaign_pass(env_for_pass(r), opt, count, lens, res);
    best.add(pass.campaign_s);
    if (best_cells != nullptr) best_cells->add(pass.cell_ms);
    if (r == 0) {
      first = std::move(pass);
      continue;
    }
    for (std::size_t k = 0; k < pass.runs.size(); ++k) {
      compare_campaigns(first.runs[k], pass.runs[k], lens,
                        "campaign " + std::to_string(k) + " repeat", res);
    }
  }
  return first;
}

Result run_campaign_lens(const Options& opt) {
  Result res;
  const int threads = campaign_threads();
  const auto build = [&] {
    auto e = std::make_unique<CampaignEnv>(threads);
    // Warm-up: one trial per cell, from the fixed warm-up seeds.
    core::CampaignConfig warm = campaign_config(threads, true);
    warm.trials = 1;
    warm.seed = kWarmUpSeed;
    (void)core::run_campaign(warm, e->ctx);
    return e;
  };
  const auto block = static_cast<std::int64_t>(
      std::ceil(opt.seconds * kNominalCampaignsPerS / kPasses));
  std::printf("campaign: 12 cells x %d trials, %d worker(s), lens on, "
              "censor_target 0; block: %lld campaigns\n",
              kCampaignTrialsPerCell, threads, static_cast<long long>(block));

  if (!opt.trace) {
    BestTimes best;
    BestTimes best_cells;
    std::vector<double> setups;
    std::unique_ptr<CampaignEnv> env;
    const auto fresh_env = [&](int pass) -> CampaignEnv& {
      env = timed_set_up<CampaignEnv>(
          pass == 0 ? opt.process_start : Clock::now(), setups, build);
      return *env;
    };
    const CampaignPass first = repeat_campaign_passes(
        fresh_env, opt, block, true, kPasses, best, &best_cells, res);
    // Thread-count identity: campaign 0 again on a serial context.
    CampaignEnv serial(1);
    const CampaignRun serial_run =
        run_campaign_once(serial, campaign_seed(opt.seed, 0), true);
    compare_campaigns(first.runs[0], serial_run, true,
                      "campaign 0 at 1 vs " + std::to_string(threads) +
                          " workers",
                      res);
    check_pinned(opt.workload,
                 run_campaign_once(serial, campaign_seed(kCheckSeed, 0), true)
                     .tally,
                 res);
    print_tally("tally (per pass)", first.tally);
    const double best_s = best.sum();
    std::printf("best-of-%d block time %.4f s\n", kPasses, best_s);
    std::printf("trial_ms samples = %zu cells (best cell wall / trials per "
                "cell)\n",
                best_cells.values().size());
    std::vector<double> cell_ms = best_cells.values();
    MetricValues v(kEndToEnd);
    v.set("trials_per_s",
          ratio(static_cast<double>(first.tally.trials), best_s));
    v.set("deliveries_per_s",
          ratio(static_cast<double>(first.tally.deliveries), best_s));
    v.set("trial_ms_p50", quantile(cell_ms, 0.5));
    v.set("trial_ms_p90", quantile(cell_ms, 0.9));
    v.set("setup_s", *std::min_element(setups.begin(), setups.end()));
    v.set("peak_rss_mb", peak_rss_mb());
    v.emit(res);
    return res;
  }

  // Traced run: the same campaigns with the lens on and off, on one worker,
  // and replayed outside-in on this thread.
  const std::int64_t count = std::max<std::int64_t>(1, block / 2);
  const auto env = build();
  CampaignEnv serial(1);
  const auto pooled_env = [&](int) -> CampaignEnv& { return *env; };
  const auto serial_env = [&](int) -> CampaignEnv& { return serial; };
  BestTimes best_on;
  BestTimes best_off;
  BestTimes best_serial;
  const CampaignPass on = repeat_campaign_passes(
      pooled_env, opt, count, true, kTracedPasses, best_on, nullptr, res);
  const CampaignPass off = repeat_campaign_passes(
      pooled_env, opt, count, false, kTracedPasses, best_off, nullptr, res);
  const CampaignPass serial_pass = repeat_campaign_passes(
      serial_env, opt, count, true, kTracedPasses, best_serial, nullptr, res);
  for (std::int64_t k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(k);
    compare_campaigns(on.runs[i], off.runs[i], false,
                      "campaign " + std::to_string(k) + " lens on vs off", res);
    compare_campaigns(on.runs[i], serial_pass.runs[i], true,
                      "campaign " + std::to_string(k) + " at 1 vs " +
                          std::to_string(threads) + " workers",
                      res);
  }

  TracedDriver d;
  const Clock::time_point t0 = Clock::now();
  for (const CampaignRun& run : on.runs) replay_campaign(run, d, res);
  const double traced_s = seconds_between(t0, Clock::now());
  res.attempted += d.tally.trials;

  MetricValues v(kPerLayer);
  set_layer_metrics(d, traced_s, v);
  const auto trials = static_cast<double>(on.tally.trials);
  const double tps_on = ratio(trials, best_on.sum());
  const double tps_off = ratio(trials, best_off.sum());
  const double tps_serial = ratio(trials, best_serial.sum());
  std::printf("trials/s (best of %d): %d workers lens on %.1f, lens off "
              "%.1f; 1 worker lens on %.1f\n",
              kTracedPasses, threads, tps_on, tps_off, tps_serial);
  v.set("core.pool_efficiency", ratio(tps_on, threads * tps_serial));
  v.set("lens.overhead_ratio", ratio(tps_on, tps_off));
  v.set("trace.overhead", ratio(traced_s, best_serial.sum()));
  check_pinned(opt.workload,
               run_campaign_once(serial, campaign_seed(kCheckSeed, 0), true)
                   .tally,
               res);
  v.emit(res);
  return res;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "window-splice", "window-adversarial", "async-crash", "campaign-lens"};
  return kNames;
}

Result run_workload(const Options& opt) {
  if (opt.workload == "campaign-lens") return run_campaign_lens(opt);
  if (const TrialWorkload* w = find_trial_workload(opt.workload)) {
    return run_trials(*w, opt);
  }
  throw std::invalid_argument("perfbench: unknown workload " + opt.workload);
}

}  // namespace pb
