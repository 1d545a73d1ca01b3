// perfbench: the repo benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload untraced and prints the end-to-end metrics;
// --trace 1 runs the traced outside-in replay and prints the per-layer
// metrics. Human-readable lines come first; the last line of stdout is one
// JSON object {"correct", "attempted", "failed", "metrics"}; a failed check
// sets "correct" to false. The exit code is 0 whenever a result is printed,
// 1 when the run aborted and 2 on a usage error. perfbench/METRICS.md
// describes the workloads and metrics.
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto b = line.find_first_not_of(' ', colon + 1);
        return b == std::string::npos ? "" : line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:",
               msg);
  for (const std::string& w : pb::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_seed(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && errno == 0 && text[0] != '-';
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options opt;
  opt.process_start = pb::Clock::now();
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    double num = 0.0;
    if (key == "--workload") {
      opt.workload = argv[i + 1];
      have[0] = true;
    } else if (key == "--seed" && parse_seed(argv[i + 1], opt.seed)) {
      have[1] = true;
    } else if (key == "--seconds" && parse_number(argv[i + 1], num) &&
               num > 0 && num <= 600) {
      opt.seconds = num;
      have[2] = true;
    } else if (key == "--trace" && (std::string(argv[i + 1]) == "0" ||
                                    std::string(argv[i + 1]) == "1")) {
      opt.trace = std::string(argv[i + 1]) == "1";
      have[3] = true;
    } else {
      return usage(("bad argument " + key).c_str());
    }
  }
  if (argc % 2 == 0 || !(have[0] && have[1] && have[2] && have[3])) {
    return usage("missing argument");
  }

  std::printf("workload: %s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: nproc=%ld compiler=\"%s\" build=%s cpu=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), compiler().c_str(),
              PERFBENCH_BUILD_TYPE, cpu_model().c_str());

  pb::Result res;
  try {
    res = pb::run_workload(opt);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
    return 1;
  }

  for (const pb::Metric& m : res.metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("failed_share = %.6g (%lld of %lld trials)\n",
              res.attempted > 0 ? static_cast<double>(res.failed) /
                                      static_cast<double>(res.attempted)
                                : 0.0,
              static_cast<long long>(res.failed),
              static_cast<long long>(res.attempted));

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const pb::Metric& m = res.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
