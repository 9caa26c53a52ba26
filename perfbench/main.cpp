// perfbench: the repository's diagnosis benchmark.
//
//   perfbench --workload cold|serve-live --seed N --seconds S
//             --trace 0|1 [--spans FILE] [--source-id ID]
//             [--wrong-expectation]
//
// Prints the run environment, per-run notes, and as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ledger (see README.md).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cold|serve-live "
               "--seed N --seconds S --trace 0|1 [--spans FILE] "
               "[--source-id ID] [--wrong-expectation]\n");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() == "1";
      have_trace = true;
    } else if (arg == "--spans") {
      options.spans_path = value();
    } else if (arg == "--source-id") {
      options.source_id = value();
    } else if (arg == "--wrong-expectation") {
      options.wrong_expectation = true;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_trace || options.seconds <= 0) {
    usage();
    return 2;
  }

  perfbench::Result result;
  try {
    if (options.workload == "cold") {
      result = perfbench::run_cold(options);
    } else if (options.workload == "serve-live") {
      result = perfbench::run_serve_live(options);
    } else {
      usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (options.trace) perfbench::fill_missing_layer_metrics(result);

  std::string env = "{\"workload\":" + json_string(options.workload) +
                    ",\"seed\":" + std::to_string(options.seed) +
                    ",\"seconds\":" + json_number(options.seconds) +
                    ",\"trace\":" + (options.trace ? "1" : "0") +
                    ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
                    ",\"compiler\":" + json_string(PERFBENCH_COMPILER) +
                    ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) +
                    ",\"commit\":" +
                    json_string(options.source_id.empty() ? PERFBENCH_GIT_COMMIT
                                                          : options.source_id);
  for (const auto& [key, value] : result.inputs) {
    env += "," + json_string(key) + ":" + json_string(value);
  }
  env += "}";
  std::printf("environment %s\n", env.c_str());
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  std::printf("failed_frac %s (%llu of %llu)\n",
              json_number(result.attempted == 0
                              ? 1.0
                              : static_cast<double>(result.failed) /
                                    static_cast<double>(result.attempted))
                  .c_str(),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  const bool correct = result.attempted > 0 && result.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}
