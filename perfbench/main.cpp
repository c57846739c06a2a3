// perfbench — one run of the taccd benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --taccd PATH --out DIR
//
// --trace 0 replays the workload through a live taccd over its Unix socket
// and prints the end-to-end metrics; --trace 1 runs the traced in-process
// replay and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Lines before it
// starting with '#' are informational.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

using namespace perfbench;

void print_result(const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, measured] = result.metrics[i];
    char value[64];
    // JSON has no inf/nan; a non-finite metric is a broken run.
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(measured.first) ? measured.first : -1.0);
    if (i > 0) line += ", ";
    line += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            measured.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --taccd PATH --out DIR\nworkloads:");
  for (const std::string& name : workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string workload;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      config.seed = std::stoull(value);
    } else if (key == "--seconds") {
      config.seconds = std::stod(value);
    } else if (key == "--trace") {
      trace = std::stoi(value);
    } else if (key == "--taccd") {
      config.taccd = value;
    } else if (key == "--out") {
      config.out_dir = value;
    } else {
      return usage();
    }
  }
  config.spec = find_workload(workload);
  if (config.spec == nullptr || config.taccd.empty() ||
      config.out_dir.empty() || !(config.seconds > 0.0)) {
    return usage();
  }
  ::mkdir(config.out_dir.c_str(), 0755);

  RunResult result;
  try {
    if (trace != 0) {
      run_traced(config, result);
    } else {
      run_socket(config, result);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  for (const std::string& error : result.errors) {
    std::printf("# check failed: %s\n", error.c_str());
  }
  for (const auto& [name, measured] : result.metrics) {
    if (!std::isfinite(measured.first)) {
      std::printf("# check failed: metric %s is not finite\n", name.c_str());
      result.correct = false;
    }
  }
  print_result(result);
  return 0;
}
