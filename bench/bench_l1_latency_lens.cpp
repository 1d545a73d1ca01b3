// Experiment L1: latency & accountability lens overhead + blame demo.
//
// The lens (lens/trace.hpp) streams publish/deliver/suppress/decision
// events into a flat per-worker arena; its contract is "zero cost when
// disabled, cheap when enabled". This bench measures both halves on n = 32
// reset-agreement runs:
//
//   * lens-off vs lens-on windows/s under the fair adversary, the
//     silencer, and the targeted censor (adversary/censor.hpp) wrapped
//     around fair — the overhead column is the price of tracing;
//   * a finalized accountability report for the censored configuration:
//     the censorship score and blame list the lens derives must identify
//     the injected target (printed for eyeballing; the unit tests assert
//     it).
//
// The top-level `lens_off_windows_per_sec` metric is tracked by
// scripts/bench_diff.py, so a PR that slows the lens-OFF path (i.e. makes
// the disabled lens non-free) by more than the CI tolerance fails the
// bench-smoke job.
//
// Writes BENCH_l1_latency_lens.json (a util::Json document).
//
//   ./build/bench/bench_l1_latency_lens [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "adversary/censor.hpp"
#include "core/api.hpp"
#include "lens/accountability.hpp"
#include "util/json.hpp"

using namespace aa;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

enum class AdvKind { Fair, Silencer, CensorFair };

constexpr sim::ProcId kCensorTarget = 0;

std::unique_ptr<sim::WindowAdversary> make_adv(AdvKind kind, int t) {
  switch (kind) {
    case AdvKind::Fair:
      return std::make_unique<adversary::FairWindowAdversary>();
    case AdvKind::Silencer: {
      std::vector<sim::ProcId> silenced;
      for (int i = 0; i < t; ++i) silenced.push_back(i);
      return std::make_unique<adversary::SilencerWindowAdversary>(silenced);
    }
    case AdvKind::CensorFair:
      return std::make_unique<adversary::TargetedCensorAdversary>(
          std::make_unique<adversary::FairWindowAdversary>(), kCensorTarget);
  }
  return nullptr;
}

struct RunStats {
  double windows_per_sec = 0;
  std::int64_t windows = 0;
};

/// `trials` seeded all-decided runs through the Runner's scratch-reuse
/// path — the same hot path the campaign checkers drive — with the lens on
/// or off. When `lat` is non-null the per-trial traces fold into it.
RunStats run_mode(AdvKind akind, bool lens, int n, int t, int trials,
                  lens::LatencyAccumulator* lat) {
  core::Experiment spec;
  spec.kind = protocols::ProtocolKind::Reset;
  spec.inputs = protocols::split_inputs(n, 0.5);
  spec.t = t;
  spec.budget = 400;
  spec.stop = core::StopCondition::kAllDecided;
  spec.lens = lens;
  const core::Runner runner(spec);
  core::WorkerScratch scratch;
  RunStats out;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < trials; ++i) {
    auto adv = make_adv(akind, t);
    const core::WindowRunResult r =
        runner.run_window(*adv, 1000 + static_cast<std::uint64_t>(i),
                          scratch);
    out.windows += r.windows_total;
    if (lat != nullptr && scratch.trace) lat->add(*scratch.trace);
  }
  const double secs = seconds_since(start);
  if (secs > 0) out.windows_per_sec = static_cast<double>(out.windows) / secs;
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
  const int trials = smoke ? 40 : 400;

  std::printf("L1: latency & accountability lens (n=%d, t=%d, %d trials "
              "per mode%s)\n\n",
              n, t, trials, smoke ? ", smoke" : "");

  util::Json j;
  j["config"]["n"] = n;
  j["config"]["t"] = t;
  j["config"]["trials"] = trials;
  j["config"]["smoke"] = smoke;

  const struct {
    AdvKind kind;
    const char* name;
  } advs[] = {{AdvKind::Fair, "fair"},
              {AdvKind::Silencer, "silencer"},
              {AdvKind::CensorFair, "censor_fair"}};

  lens::LatencyAccumulator censor_lat;
  double fair_off = 0;
  double fair_on = 0;
  for (const auto& a : advs) {
    const RunStats off = run_mode(a.kind, false, n, t, trials, nullptr);
    lens::LatencyAccumulator* lat =
        a.kind == AdvKind::CensorFair ? &censor_lat : nullptr;
    const RunStats on = run_mode(a.kind, true, n, t, trials, lat);
    const double overhead_pct =
        off.windows_per_sec > 0
            ? (off.windows_per_sec / on.windows_per_sec - 1.0) * 100.0
            : 0.0;
    std::printf("%-12s lens-off %9.0f w/s | lens-on %9.0f w/s | "
                "overhead %+.1f%%\n",
                a.name, off.windows_per_sec, on.windows_per_sec,
                overhead_pct);
    j[a.name]["lens_off_windows_per_sec"] = off.windows_per_sec;
    j[a.name]["lens_on_windows_per_sec"] = on.windows_per_sec;
    j[a.name]["overhead_pct"] = overhead_pct;
    if (a.kind == AdvKind::Fair) {
      fair_off = off.windows_per_sec;
      fair_on = on.windows_per_sec;
    }
  }

  // The bench_diff-tracked gate: the disabled lens must stay free.
  j["lens_off_windows_per_sec"] = fair_off;
  j["lens_on_windows_per_sec"] = fair_on;

  const lens::LatencyReport rep = censor_lat.finalize(t);
  const lens::SenderLatency& victim =
      rep.senders[static_cast<std::size_t>(kCensorTarget)];
  std::printf("\ncensor_fair accountability: target %d score %.3f "
              "(delivered_share %.3f, confirmed_share %.3f), blamed_censored"
              " = [",
              kCensorTarget, victim.censorship_score, victim.delivered_share,
              victim.confirmed_share);
  for (std::size_t i = 0; i < rep.blamed_censored.size(); ++i) {
    std::printf("%s%d", i ? ", " : "", rep.blamed_censored[i]);
  }
  std::printf("]\n");
  j["censor_fair"]["target_censorship_score"] = victim.censorship_score;
  j["censor_fair"]["blamed_count"] = rep.blamed_censored.size();

  if (util::write_file_atomic("BENCH_l1_latency_lens.json", j.dump())) {
    std::printf("wrote BENCH_l1_latency_lens.json\n");
  }
  return 0;
}
