// diffprovd: the warm diagnosis daemon.
//
// Wraps service::DiagnosisService in the NDJSON-over-loopback-TCP transport
// (service/daemon.h). Runs until a client sends {"op":"shutdown"} or the
// process receives SIGINT/SIGTERM; on the way out it drains queued queries
// and optionally dumps metrics/trace artifacts in the same formats as the
// one-shot CLI (validated by obs_check).
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/recorder.h"
#include "service/daemon.h"
#include "service/service.h"

namespace {

constexpr const char* kUsage =
    "usage: diffprovd [--port N] [--port-file FILE] [--shards N]\n"
    "                 [--workers N] [--queue-cap N] [--max-warm N]\n"
    "                 [--warm-bytes N] [--cache-cap N] [--cache-stripes N]\n"
    "                 [--config-epoch N] [--metrics-out FILE]\n"
    "                 [--trace-out FILE] [--worker-deadline-ms N]\n"
    "                 [--slow-ms N] [--slow-factor K] [--slow-cap N]\n"
    "                 [--profile-interval-ms N]\n"
    "\n"
    "serves diagnosis queries over newline-delimited JSON on\n"
    "127.0.0.1:PORT (default: an ephemeral port, written to --port-file\n"
    "if given). stop it with diffprov_client --shutdown.\n"
    "\n"
    "--shards N (default 1, max 32) splits the service into N independent\n"
    "lanes -- each with its own warm-session set, queue, and --workers\n"
    "worker threads -- keyed by scenario/log hash; --queue-cap is\n"
    "per shard, --max-warm and --warm-bytes are global (rebalanced across\n"
    "shards). the result cache is shared, striped --cache-stripes ways\n"
    "(default 8).\n"
    "\n"
    "live ingest: {\"op\":\"ingest_open\"} + {\"op\":\"ingest\"} stream base\n"
    "events into a warm session whose engine they feed; submit with\n"
    "\"stream\" diagnoses against it without replay. --max-warm and\n"
    "--warm-bytes cool streams like any session; a cooled stream replays\n"
    "its log at its next query.\n"
    "\n"
    "the same port answers HTTP GETs: /metrics (Prometheus text, with\n"
    "dp.*_p50/_p95/_p99/_p999 quantile-sketch series), /healthz, /tracez\n"
    "(flight-recorder ring dump), /profilez (sampled collapsed stacks,\n"
    "flamegraph-ready), /slowz (slow-query journal). the recorder behind\n"
    "/tracez and /profilez is always on; a worker busy longer than\n"
    "--worker-deadline-ms (default 10000, 0 = off) is flagged in\n"
    "dp.service.worker.stuck and triggers flight-recorder + slowz dumps.\n"
    "\n"
    "slow-query capture: a query whose exec time exceeds\n"
    "max(--slow-ms, --slow-factor x live p99) is journaled with its\n"
    "explain profile, trace id, flight-recorder snapshot, and profiler\n"
    "slice (--slow-ms default 1000; 0 = purely adaptive, captures the\n"
    "first query; negative disables; --slow-cap entries kept per shard,\n"
    "default 32). the recorder samples scope stacks every\n"
    "--profile-interval-ms (default 10).\n";

dp::service::Daemon* g_daemon = nullptr;

void handle_signal(int) {
  if (g_daemon != nullptr) g_daemon->stop();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::uint16_t port = 0;
  std::string port_file;
  std::string metrics_path;
  std::string trace_path;
  long long profile_interval_ms = 10;
  dp::service::ServiceConfig config;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* what) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::cerr << arg << " requires " << what << "\n" << kUsage;
        return std::nullopt;
      }
      return args[++i];
    };
    try {
      if (arg == "--port") {
        auto v = next("a port");
        if (!v) return 2;
        port = static_cast<std::uint16_t>(std::stoul(*v));
      } else if (arg == "--port-file") {
        auto v = next("a path");
        if (!v) return 2;
        port_file = *v;
      } else if (arg == "--shards") {
        auto v = next("a count");
        if (!v) return 2;
        config.shards = std::stoul(*v);
      } else if (arg == "--workers") {
        auto v = next("a count");
        if (!v) return 2;
        config.workers = std::stoul(*v);
      } else if (arg == "--queue-cap") {
        auto v = next("a count");
        if (!v) return 2;
        config.queue_capacity = std::stoul(*v);
      } else if (arg == "--max-warm") {
        auto v = next("a count");
        if (!v) return 2;
        config.max_warm_sessions = std::stoul(*v);
      } else if (arg == "--warm-bytes") {
        auto v = next("a byte count (0 = unlimited)");
        if (!v) return 2;
        config.warm_bytes_budget = std::stoull(*v);
      } else if (arg == "--cache-cap") {
        auto v = next("a count");
        if (!v) return 2;
        config.cache_capacity = std::stoul(*v);
      } else if (arg == "--cache-stripes") {
        auto v = next("a count");
        if (!v) return 2;
        config.cache_stripes = std::stoul(*v);
      } else if (arg == "--config-epoch") {
        auto v = next("a number");
        if (!v) return 2;
        config.config_epoch = std::stoull(*v);
      } else if (arg == "--profile-interval-ms") {
        auto v = next("milliseconds");
        if (!v) return 2;
        profile_interval_ms = std::stoll(*v);
      } else if (arg == "--slow-ms") {
        auto v = next("milliseconds (0 = adaptive only, negative = off)");
        if (!v) return 2;
        config.slow_ms = std::stod(*v);
      } else if (arg == "--slow-factor") {
        auto v = next("a multiplier");
        if (!v) return 2;
        config.slow_factor = std::stod(*v);
      } else if (arg == "--slow-cap") {
        auto v = next("a count");
        if (!v) return 2;
        config.slow_journal_capacity = std::stoul(*v);
      } else if (arg == "--worker-deadline-ms") {
        auto v = next("milliseconds (0 = off)");
        if (!v) return 2;
        config.worker_deadline = std::chrono::milliseconds(std::stoll(*v));
      } else if (arg == "--metrics-out") {
        auto v = next("a path");
        if (!v) return 2;
        metrics_path = *v;
      } else if (arg == "--trace-out") {
        auto v = next("a path");
        if (!v) return 2;
        trace_path = *v;
      } else if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      } else {
        std::cerr << "unknown option '" << arg << "'\n" << kUsage;
        return 2;
      }
    } catch (const std::exception& e) {
      std::cerr << "bad argument for " << arg << ": " << e.what() << "\n";
      return 2;
    }
  }

  if (!trace_path.empty()) dp::obs::default_tracer().set_enabled(true);
  // Always on in the daemon: each thread's ring keeps its last moments for
  // /tracez, the flightrec op and panic/watchdog dumps; the sampler folds
  // the scope stacks into /profilez and the per-query /slowz slices.
  dp::obs::Recorder::install_log_hook();
  dp::obs::Recorder::instance().start_sampler(
      std::chrono::milliseconds(profile_interval_ms));

  try {
    dp::service::DiagnosisService service(config);
    dp::service::Daemon daemon(service, port);
    g_daemon = &daemon;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << daemon.port() << "\n";
    }
    std::cout << "diffprovd listening on 127.0.0.1:" << daemon.port() << " ("
              << service.shard_count() << " shards x " << config.workers
              << " workers, queue " << config.queue_capacity
              << "/shard)" << std::endl;

    daemon.serve();
    service.shutdown(/*drain=*/true);
    g_daemon = nullptr;
    dp::obs::Recorder::instance().stop_sampler();

    std::cout << service.stats().to_text();
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path, std::ios::binary);
      out << service.metrics().to_json();
      std::cout << "wrote metrics (" << service.metrics().size()
                << " series) to " << metrics_path << "\n";
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path, std::ios::binary);
      out << dp::obs::default_tracer().to_chrome_json();
      std::cout << "wrote trace (" << dp::obs::default_tracer().size()
                << " events) to " << trace_path << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "diffprovd: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
