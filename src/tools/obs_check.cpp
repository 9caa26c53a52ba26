// Validates observability artifacts: a Chrome trace-event JSON
// (--trace-out), a metrics-registry JSON (--metrics-out), or a Prometheus
// text scrape from diffprovd's /metrics endpoint (--prom). Used by CI to
// assert the artifacts are well-formed, histogram semantics hold (le bounds
// strictly increasing, cumulative counts non-decreasing and capped by
// _count, latency sums non-negative), and the expected spans / series are
// present.
//
//   obs_check --trace trace.json --require dp.diffprov.diagnose
//       --require-prefix rule:
//   obs_check --metrics metrics.json --require dp.runtime.derivations
//   curl -s localhost:PORT/metrics |
//       obs_check --prom /dev/stdin --require dp_service_submitted
//
// (an indented line continues the command above it)
//
// Exit code 0 on success; 1 with a message on stderr otherwise.
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.h"

namespace {

constexpr const char* kUsage =
    "usage: obs_check (--trace FILE | --metrics FILE | --prom FILE)\n"
    "                 [--require NAME]... [--require-prefix PREFIX]...\n"
    "                 [--min-events N]\n";

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool check_required(const std::set<std::string>& have,
                    const std::vector<std::string>& required,
                    const std::vector<std::string>& prefixes,
                    const char* what) {
  bool ok = true;
  for (const std::string& name : required) {
    if (have.count(name) == 0) {
      std::cerr << "obs_check: missing " << what << " '" << name << "'\n";
      ok = false;
    }
  }
  for (const std::string& prefix : prefixes) {
    bool found = false;
    for (const std::string& name : have) {
      if (name.compare(0, prefix.size(), prefix) == 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::cerr << "obs_check: no " << what << " starts with '" << prefix
                << "'\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string prom_path;
  std::vector<std::string> required;
  std::vector<std::string> prefixes;
  std::size_t min_events = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " requires an argument\n" << kUsage;
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else if (arg == "--prom") {
      prom_path = next();
    } else if (arg == "--require") {
      required.emplace_back(next());
    } else if (arg == "--require-prefix") {
      prefixes.emplace_back(next());
    } else if (arg == "--min-events") {
      min_events = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "unknown option '" << arg << "'\n" << kUsage;
      return 2;
    }
  }
  const int modes = (trace_path.empty() ? 0 : 1) +
                    (metrics_path.empty() ? 0 : 1) + (prom_path.empty() ? 0 : 1);
  if (modes != 1) {
    std::cerr << kUsage;
    return 2;
  }

  std::string text;
  const std::string& path = !trace_path.empty()
                                ? trace_path
                                : (!metrics_path.empty() ? metrics_path
                                                         : prom_path);
  if (!read_file(path, text)) {
    std::cerr << "obs_check: cannot open " << path << "\n";
    return 1;
  }

  if (!trace_path.empty()) {
    const dp::obs::TraceCheck check = dp::obs::check_chrome_trace(text);
    if (!check.ok) {
      std::cerr << "obs_check: " << path << ": " << check.error << "\n";
      return 1;
    }
    if (check.events < min_events) {
      std::cerr << "obs_check: " << path << ": only " << check.events
                << " events (expected >= " << min_events << ")\n";
      return 1;
    }
    if (!check_required(check.names, required, prefixes, "span")) return 1;
    std::cout << "obs_check: " << path << " ok (" << check.events
              << " events)\n";
    return 0;
  }

  if (!prom_path.empty()) {
    const dp::obs::PrometheusCheck check = dp::obs::check_prometheus_text(text);
    if (!check.ok) {
      std::cerr << "obs_check: " << path << ": " << check.error << "\n";
      return 1;
    }
    if (check.series < min_events) {
      std::cerr << "obs_check: " << path << ": only " << check.series
                << " series (expected >= " << min_events << ")\n";
      return 1;
    }
    if (!check_required(check.names, required, prefixes, "series")) return 1;
    std::cout << "obs_check: " << path << " ok (" << check.series
              << " series)\n";
    return 0;
  }

  const dp::obs::MetricsCheck check = dp::obs::check_metrics_json(text);
  if (!check.ok) {
    std::cerr << "obs_check: " << path << ": " << check.error << "\n";
    return 1;
  }
  if (check.series < min_events) {
    std::cerr << "obs_check: " << path << ": only " << check.series
              << " series (expected >= " << min_events << ")\n";
    return 1;
  }
  if (!check_required(check.names, required, prefixes, "series")) return 1;
  std::cout << "obs_check: " << path << " ok (" << check.series
            << " series)\n";
  return 0;
}
