// Experiment M2: long-horizon window throughput — the O(history) kill.
//
// Before this bench existed, every window paid costs proportional to the
// whole execution history: end_window() scanned every envelope ever sent
// and the buffer's memory grew without bound. The recycling arena makes a
// steady-state window O(live messages) with flat memory. This bench proves
// both claims on a 10k-window, n = 32 run:
//
//   1. engine runs (reset-agreement under split-keeper / fair adversaries):
//      sustained windows/sec and deliveries/sec, plus the arena high-water
//      mark sampled early and late — identical samples ⇒ flat live memory;
//   2. the buffer alone, driven with a synthetic add / deliver /
//      end-of-window-drop schedule — the engine's buffer-only ceiling.
//
// Writes BENCH_m2_window_horizon.json (a util::Json document).
//
//   ./build/bench/bench_m2_window_horizon [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
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

/// The synthetic per-window buffer schedule: n² adds, deliver the messages
/// aimed at even receivers, window-drop the rest.
std::size_t drive_buffer(sim::MessageBuffer& buf, int n,
                         std::int64_t windows) {
  sim::Message m;
  m.kind = 1;
  std::size_t delivered = 0;
  for (std::int64_t w = 0; w < windows; ++w) {
    for (int s = 0; s < n; ++s) {
      for (int r = 0; r < n; ++r) buf.add(s, r, m, w, 1);
    }
    for (int r = 0; r < n; r += 2) {
      for (const sim::Envelope& env : buf.pending_to(r)) {
        buf.mark_delivered(env.id);
        ++delivered;
      }
    }
    buf.drop_pending_in_window(w);
  }
  return delivered;
}

struct EngineRun {
  double seconds = 0;
  std::int64_t deliveries = 0;
  std::size_t slots_early = 0;  ///< arena high-water mark at W/10
  std::size_t slots_late = 0;   ///< ... and at W
  std::size_t total_sent = 0;
};

EngineRun run_engine(sim::WindowAdversary& adv, int n, int t,
                     std::int64_t windows) {
  sim::Execution exec(
      protocols::make_processes(protocols::ProtocolKind::Reset, t,
                                protocols::split_inputs(n, 0.5)),
      42);
  EngineRun out;
  const auto start = std::chrono::steady_clock::now();
  const std::int64_t early = windows / 10 > 0 ? windows / 10 : 1;
  for (std::int64_t w = 0; w < windows; ++w) {
    out.deliveries += sim::run_acceptable_window(exec, adv, t);
    if (w + 1 == early) out.slots_early = exec.buffer().slot_capacity();
  }
  out.seconds = seconds_since(start);
  out.slots_late = exec.buffer().slot_capacity();
  out.total_sent = exec.buffer().total_sent();
  return out;
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

  std::printf("M2: window-horizon throughput (n=%d, t=%d, %lld windows%s)\n\n",
              n, t, static_cast<long long>(windows), smoke ? ", smoke" : "");

  util::Json j;
  j["config"]["n"] = n;
  j["config"]["t"] = t;
  j["config"]["windows"] = windows;
  j["config"]["smoke"] = smoke;

  // ---- engine throughput over the full horizon ---------------------------
  {
    adversary::SplitKeeperAdversary keeper;
    const EngineRun r = run_engine(keeper, n, t, windows);
    std::printf("engine/split-keeper : %9.0f windows/s, %10.0f deliveries/s "
                "(%lld sent; arena slots %zu @W/10 → %zu @W)\n",
                windows / r.seconds,
                static_cast<double>(r.deliveries) / r.seconds,
                static_cast<long long>(r.total_sent), r.slots_early,
                r.slots_late);
    j["engine_split_keeper"]["windows_per_sec"] = windows / r.seconds;
    j["engine_split_keeper"]["deliveries_per_sec"] =
        static_cast<double>(r.deliveries) / r.seconds;
    j["engine_split_keeper"]["wall_seconds"] = r.seconds;
    j["engine_split_keeper"]["total_messages"] = r.total_sent;
    j["engine_split_keeper"]["arena_slots_early"] = r.slots_early;
    j["engine_split_keeper"]["arena_slots_late"] = r.slots_late;
    j["engine_split_keeper"]["live_memory_flat"] =
        r.slots_early == r.slots_late;
  }
  {
    adversary::FairWindowAdversary fair;
    const EngineRun r = run_engine(fair, n, t, windows);
    std::printf("engine/fair         : %9.0f windows/s, %10.0f deliveries/s "
                "(arena slots %zu @W/10 → %zu @W)\n",
                windows / r.seconds,
                static_cast<double>(r.deliveries) / r.seconds, r.slots_early,
                r.slots_late);
    j["engine_fair"]["windows_per_sec"] = windows / r.seconds;
    j["engine_fair"]["deliveries_per_sec"] =
        static_cast<double>(r.deliveries) / r.seconds;
    j["engine_fair"]["wall_seconds"] = r.seconds;
    j["engine_fair"]["arena_slots_early"] = r.slots_early;
    j["engine_fair"]["arena_slots_late"] = r.slots_late;
    j["engine_fair"]["live_memory_flat"] = r.slots_early == r.slots_late;
  }

  // ---- buffer-only ceiling ------------------------------------------------
  {
    sim::MessageBuffer buf(n);
    const auto start = std::chrono::steady_clock::now();
    const std::size_t delivered = drive_buffer(buf, n, windows);
    const double arena_s = seconds_since(start);
    std::printf("buffer/arena        : %9.0f windows/s (%zu delivered, "
                "%zu slots resident)\n",
                windows / arena_s, delivered, buf.slot_capacity());
    j["buffer_arena"]["windows_per_sec"] = windows / arena_s;
    j["buffer_arena"]["wall_seconds"] = arena_s;
    j["buffer_arena"]["slots_resident"] = buf.slot_capacity();
  }

  if (util::write_file_atomic("BENCH_m2_window_horizon.json", j.dump())) {
    std::printf("wrote BENCH_m2_window_horizon.json\n");
  }
  return 0;
}
