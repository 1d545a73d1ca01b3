// Experiment M3: plan reuse vs per-window replanning.
//
// The arena PR (M2) left a 2× gap between the buffer ceiling and the
// engine: every window re-filled an n² WindowPlan, re-validated it, and
// paid one virtual Process::on_receive per delivery. This bench isolates
// what plan reuse buys, per adversary, on a 10k-window n = 32 run of
// reset-agreement:
//
//   replan_batched — the driver forced to replan/re-validate every window
//                    (adversary::ReplanEveryWindow).
//   reuse_batched  — static adversaries reuse their plan (kReusePrevious);
//                    deliveries run batched in both modes.
//
// Adversaries: fair and silencer (static plans — they exercise reuse) and
// split-keeper (genuinely adaptive — replans every window by nature, so
// reuse_batched degenerates to replan_batched and only the delivery delta
// shows).
//
// Writes BENCH_m3_plan_reuse.json (a util::Json document).
//
//   ./build/bench/bench_m3_plan_reuse [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/api.hpp"
#include "util/json.hpp"

using namespace aa;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

enum class AdvKind { Fair, Silencer, SplitKeeper };

std::unique_ptr<sim::WindowAdversary> make_adv(AdvKind kind, int t) {
  switch (kind) {
    case AdvKind::Fair:
      return std::make_unique<adversary::FairWindowAdversary>();
    case AdvKind::Silencer: {
      std::vector<sim::ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(i);
      return std::make_unique<adversary::SilencerWindowAdversary>(silenced);
    }
    case AdvKind::SplitKeeper:
      return std::make_unique<adversary::SplitKeeperAdversary>();
  }
  return nullptr;
}

enum class Mode { ReplanBatched, ReuseBatched };

struct RunStats {
  double windows_per_sec = 0;
  std::int64_t deliveries = 0;
};

RunStats run_mode(AdvKind akind, Mode mode, int n, int t,
                  std::int64_t windows) {
  sim::Execution exec(
      protocols::make_processes(protocols::ProtocolKind::Reset, t,
                                protocols::split_inputs(n, 0.5)),
      42);
  std::unique_ptr<sim::WindowAdversary> adv = make_adv(akind, t);
  if (mode == Mode::ReplanBatched) {
    adv = std::make_unique<adversary::ReplanEveryWindow>(std::move(adv));
  }
  RunStats out;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t w = 0; w < windows; ++w) {
    out.deliveries += sim::run_acceptable_window(exec, *adv, t);
  }
  out.windows_per_sec = static_cast<double>(windows) / seconds_since(start);
  return out;
}

const char* mode_key(Mode m) {
  switch (m) {
    case Mode::ReplanBatched: return "replan_batched";
    case Mode::ReuseBatched: return "reuse_batched";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int n = 32;
  const int t = 5;  // t < n/6
  const std::int64_t windows = smoke ? 500 : 10000;

  std::printf("M3: plan reuse vs replan (n=%d, t=%d, %lld windows%s)\n\n",
              n, t, static_cast<long long>(windows), smoke ? ", smoke" : "");

  util::Json j;
  j["config"]["n"] = n;
  j["config"]["t"] = t;
  j["config"]["windows"] = windows;
  j["config"]["smoke"] = smoke;

  const struct {
    AdvKind kind;
    const char* name;
  } advs[] = {{AdvKind::Fair, "fair"},
              {AdvKind::Silencer, "silencer"},
              {AdvKind::SplitKeeper, "split_keeper"}};

  for (const auto& a : advs) {
    for (const Mode mode : {Mode::ReplanBatched, Mode::ReuseBatched}) {
      const RunStats r = run_mode(a.kind, mode, n, t, windows);
      std::printf("%-12s %-15s: %9.0f windows/s (%lld deliveries)\n", a.name,
                  mode_key(mode), r.windows_per_sec,
                  static_cast<long long>(r.deliveries));
      j[a.name][mode_key(mode)]["windows_per_sec"] = r.windows_per_sec;
    }
    std::printf("\n");
  }

  if (util::write_file_atomic("BENCH_m3_plan_reuse.json", j.dump())) {
    std::printf("wrote BENCH_m3_plan_reuse.json\n");
  }
  return 0;
}
