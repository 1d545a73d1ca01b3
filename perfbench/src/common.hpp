// Shared vocabulary of the perfbench binary: clocks, per-trial records,
// deterministic tallies and the metric list a run prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64 finalizer: turns the workload seed into trial/campaign seeds.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Everything deterministic one trial produced. Two runs of the same trial
/// seed through either trial path (Runner or traced replay) must produce
/// equal records; the differential guard and the re-run check compare whole
/// records.
struct TrialRecord {
  bool decided = false;
  bool all_decided = false;
  int decision = -1;
  std::int64_t windows = 0;
  std::int64_t windows_to_first = -1;
  std::int64_t deliveries = 0;
  std::int64_t published = 0;
  std::int64_t dropped = 0;
  std::int64_t resets = 0;
  std::int64_t steps = 0;
  std::int64_t crashes = 0;
  /// Agreement and validity, recomputed from the outputs.
  bool agreement = true;
  bool validity = true;
  /// The library's own verdicts and counters matched the recomputation.
  bool library_agrees = true;

  bool operator==(const TrialRecord&) const = default;
  [[nodiscard]] int violations() const {
    return (agreement ? 0 : 1) + (validity ? 0 : 1);
  }
  [[nodiscard]] bool ok() const { return violations() == 0 && library_agrees; }
};

/// The workload tally: a pure function of (workload, seed, seconds).
struct Tally {
  std::int64_t trials = 0;
  std::int64_t decided = 0;
  std::int64_t all_decided = 0;
  std::int64_t windows = 0;
  std::int64_t deliveries = 0;
  std::int64_t published = 0;
  std::int64_t dropped = 0;
  std::int64_t resets = 0;
  std::int64_t violations = 0;

  void add(const TrialRecord& r) {
    ++trials;
    decided += r.decided ? 1 : 0;
    all_decided += r.all_decided ? 1 : 0;
    windows += r.windows;
    deliveries += r.deliveries;
    published += r.published;
    dropped += r.dropped;
    resets += r.resets;
    violations += r.violations();
  }
  void add(const Tally& o) {
    trials += o.trials;
    decided += o.decided;
    all_decided += o.all_decided;
    windows += o.windows;
    deliveries += o.deliveries;
    published += o.published;
    dropped += o.dropped;
    resets += o.resets;
    violations += o.violations;
  }
  bool operator==(const Tally&) const = default;

  [[nodiscard]] std::string str() const {
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "trials=%lld decided=%lld all_decided=%lld windows=%lld "
                  "deliveries=%lld published=%lld dropped=%lld resets=%lld "
                  "violations=%lld",
                  static_cast<long long>(trials),
                  static_cast<long long>(decided),
                  static_cast<long long>(all_decided),
                  static_cast<long long>(windows),
                  static_cast<long long>(deliveries),
                  static_cast<long long>(published),
                  static_cast<long long>(dropped),
                  static_cast<long long>(resets),
                  static_cast<long long>(violations));
    return buf;
  }
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one benchmark run reports.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  /// Record a failed check; `trials` of them count as failed trials. The
  /// first kPrintedFailures are printed.
  void fail(std::int64_t trials, const std::string& why) {
    static constexpr int kPrintedFailures = 20;
    correct = false;
    failed += trials;
    if (++failures_ <= kPrintedFailures) {
      std::printf("FAIL: %s\n", why.c_str());
    } else if (failures_ == kPrintedFailures + 1) {
      std::printf("FAIL: further failures not printed\n");
    }
  }

 private:
  int failures_ = 0;
};

/// Nearest-rank quantile of `v` (sorted in place).
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace pb
