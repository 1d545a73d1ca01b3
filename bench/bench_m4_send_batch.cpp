// Experiment M4: the bulk publication pipeline A/B.
//
// Two layers:
//
//   publication — MessageBuffer in isolation, the staging→publication hot
//     path alone: one window of n=32 broadcasts published as n² per-item
//     add() calls vs n add_batch() runs, window dropped, repeated. The
//     delta is the slot-run allocation + single window-list splice + bulk
//     id-map insert that add_batch buys.
//
//   engine — the same probe as BENCH_m3 (reset-agreement, n=32, t=5, 10k
//     windows) through the full batched pipeline (add_batch publication +
//     fused pair index + deliver_plan_row). Adversaries: fair (whole-list
//     splice), silencer (filtered splice), split-keeper (adversarial order
//     → slow path). Fast-path vs per-message identity is pinned by
//     tests/sim/test_send_batch.cpp.
//
// Writes BENCH_m4_send_batch.json (a util::Json document).
//
//   ./build/bench/bench_m4_send_batch [--smoke]
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

// ---- layer 1: buffer-level publication ------------------------------------

double publication_per_item(int n, std::int64_t windows) {
  sim::MessageBuffer buf(n);
  sim::Message m;
  m.kind = 1;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t w = 0; w < windows; ++w) {
    for (sim::ProcId s = 0; s < n; ++s) {
      for (sim::ProcId r = 0; r < n; ++r) buf.add(s, r, m, w, 1);
    }
    buf.drop_pending_in_window(w);
  }
  const double secs = seconds_since(start);
  return static_cast<double>(windows) * n * n / secs;
}

double publication_batched(int n, std::int64_t windows) {
  sim::MessageBuffer buf(n);
  sim::Message m;
  m.kind = 1;
  std::vector<sim::StagedMessage> items;
  for (sim::ProcId r = 0; r < n; ++r) items.push_back({r, m});
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t w = 0; w < windows; ++w) {
    for (sim::ProcId s = 0; s < n; ++s) buf.add_batch(s, items, w, 1);
    buf.drop_pending_in_window(w);
  }
  const double secs = seconds_since(start);
  return static_cast<double>(windows) * n * n / secs;
}

// ---- layer 2: engine windows/s --------------------------------------------

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

struct RunStats {
  double windows_per_sec = 0;
  std::int64_t deliveries = 0;
};

RunStats run_engine(AdvKind akind, int n, int t, std::int64_t windows) {
  sim::Execution exec(
      protocols::make_processes(protocols::ProtocolKind::Reset, t,
                                protocols::split_inputs(n, 0.5)),
      42);
  std::unique_ptr<sim::WindowAdversary> adv = make_adv(akind, t);
  RunStats out;
  const auto start = std::chrono::steady_clock::now();
  for (std::int64_t w = 0; w < windows; ++w) {
    out.deliveries += sim::run_acceptable_window(exec, *adv, t);
  }
  out.windows_per_sec = static_cast<double>(windows) / seconds_since(start);
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

  std::printf("M4: bulk publication pipeline A/B (n=%d, t=%d, %lld windows%s)\n\n",
              n, t, static_cast<long long>(windows), smoke ? ", smoke" : "");

  util::Json j;
  j["config"]["n"] = n;
  j["config"]["t"] = t;
  j["config"]["windows"] = windows;
  j["config"]["smoke"] = smoke;

  const double per_item = publication_per_item(n, windows);
  const double batched = publication_batched(n, windows);
  std::printf("publication  per_item  : %12.0f msgs/s\n", per_item);
  std::printf("publication  add_batch : %12.0f msgs/s\n", batched);
  std::printf("publication  speedup   : %.2fx\n\n", batched / per_item);
  j["publication"]["per_item"]["msgs_per_sec"] = per_item;
  j["publication"]["batched"]["msgs_per_sec"] = batched;
  j["publication"]["speedup"] = batched / per_item;

  const struct {
    AdvKind kind;
    const char* name;
  } advs[] = {{AdvKind::Fair, "fair"},
              {AdvKind::Silencer, "silencer"},
              {AdvKind::SplitKeeper, "split_keeper"}};

  for (const auto& a : advs) {
    const RunStats fast = run_engine(a.kind, n, t, windows);
    std::printf("%-12s batched     : %9.0f windows/s (%lld deliveries)\n",
                a.name, fast.windows_per_sec,
                static_cast<long long>(fast.deliveries));
    j[a.name]["batched"]["windows_per_sec"] = fast.windows_per_sec;
  }

  if (util::write_file_atomic("BENCH_m4_send_batch.json", j.dump())) {
    std::printf("wrote BENCH_m4_send_batch.json\n");
  }
  return 0;
}
