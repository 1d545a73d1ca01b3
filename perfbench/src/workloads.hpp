// The benchmark's four workloads and the metric lists a run prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Taken at main() entry: the first set-up is timed from here.
  Clock::time_point process_start;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] Result run_workload(const Options& opt);

}  // namespace pb
