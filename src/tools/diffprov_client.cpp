// diffprov_client: command-line client for diffprovd.
//
// The default action submits a diagnosis query, waits for it, and prints the
// report exactly as diffprov_cli would -- stdout bytes are identical for the
// same query (the CI smoke diffs them). Exit codes mirror the CLI: 0 =
// diagnosis succeeded, 1 = failed/missing event, 2 = usage, 3 = shed by
// admission control or transport error.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json_check.h"
#include "obs/trace.h"

namespace {

using dp::obs::Json;
using dp::obs::json_quote;

constexpr const char* kUsage =
    "usage: diffprov_client (--port N | --port-file FILE) ACTION\n"
    "\n"
    "actions:\n"
    "  --scenario NAME [--bad 'EVENT'] [--good 'EVENT'] [--auto-reference]\n"
    "      [--minimize] [--bypass-cache]     submit a query and wait\n"
    "  --program FILE --log FILE ...         same, with an inline problem\n"
    "  --stream NAME [--bad ...] [--good ...]  diagnose against a live ingest\n"
    "      stream (no replay: snapshots its always-current graph)\n"
    "  --ingest-open NAME --scenario NAME    open a live ingest stream (the\n"
    "      scenario's program/topology; its log arrives via --ingest).\n"
    "      --program FILE opens over an inline program instead\n"
    "  --ingest NAME --events FILE           stream events (EventLog text,\n"
    "      \"-\" = stdin) into a live stream; --batch N sends N events per\n"
    "      request (default: one request)\n"
    "  --probe 'TUPLE' --scenario NAME       live-state probe\n"
    "  --poll ID | --cancel ID               inspect/cancel a past query\n"
    "  --stats                               server counters\n"
    "  --flightrec                           dump the daemon's flight recorder\n"
    "  --slowz                               dump the slow-query journal\n"
    "  --shutdown                            drain and stop the daemon\n"
    "\n"
    "  --meta          print cache/timing metadata for the query to stderr\n"
    "  --explain       print the query's phase-time profile to stderr\n"
    "  --trace-id HEX  pin the trace id sent with the query (default: minted\n"
    "                  per invocation; spans server-side work in the daemon's\n"
    "                  --trace-out dump under one id)\n";

/// Mints the trace context this invocation stamps on its query: a random
/// nonzero 64-bit id, so concurrent clients never collide and the daemon's
/// trace dump attributes every span of the diagnosis to this run.
std::uint64_t mint_trace_id() {
  std::random_device rd;
  std::uint64_t id =
      (static_cast<std::uint64_t>(rd()) << 32) ^ static_cast<std::uint64_t>(rd());
  if (id == 0) id = 1;
  return id;
}

/// Renders the response's "profile" object (see DESIGN.md section 12) as the
/// human-readable --explain report.
void print_explain(const Json& response, std::ostream& out) {
  const Json* profile = response.find("profile");
  if (profile == nullptr || profile->kind != Json::Kind::kObject) {
    out << "explain: no profile in response (daemon predates profiles?)\n";
    return;
  }
  const double total = profile->get_number("total_us");
  out << "explain:";
  const std::string trace = profile->get_string("trace_id");
  if (!trace.empty()) out << " trace " << trace;
  out << " total " << static_cast<long long>(total) << " us ("
      << (profile->get_bool("warm_hit") ? "warm session" : "cold session")
      << (response.get_bool("cache_hit") ? ", cache hit" : "") << ", "
      << static_cast<long long>(profile->get_number("rounds")) << " round(s), "
      << static_cast<long long>(profile->get_number("replays"))
      << " replay(s))\n";
  const Json* phases = profile->find("phases");
  if (phases != nullptr && phases->kind == Json::Kind::kObject) {
    for (const char* phase :
         {"session_wait_us", "warm_replay_us", "ingest_snapshot_us",
          "replay_us", "locate_us", "find_seed_us", "annotate_us",
          "divergence_us", "make_appear_us", "diff_replay_us", "minimize_us",
          "other_us"}) {
      const double us = phases->get_number(phase);
      char line[96];
      std::snprintf(line, sizeof(line), "  %-16s %10lld us  %5.1f%%\n", phase,
                    static_cast<long long>(us),
                    total > 0 ? 100.0 * us / total : 0.0);
      out << line;
    }
  }
  out << "  trees: good "
      << static_cast<long long>(profile->get_number("good_tree_size"))
      << " / bad "
      << static_cast<long long>(profile->get_number("bad_tree_size"))
      << " vertexes; +"
      << static_cast<long long>(profile->get_number("vertices_delta"))
      << " provenance vertices this run; store "
      << static_cast<long long>(profile->get_number("store_tuples"))
      << " tuples / "
      << static_cast<long long>(profile->get_number("store_bytes"))
      << " bytes resident\n";
}

class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket: " + error_text());
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      throw std::runtime_error("connect 127.0.0.1:" + std::to_string(port) +
                               ": " + error_text());
    }
  }
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// One request/response round trip, returning the raw response line.
  std::string raw_round_trip(const std::string& request) {
    std::string line = request;
    line.push_back('\n');
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("send: " + error_text());
      }
      sent += static_cast<std::size_t>(n);
    }
    std::string response;
    char c = 0;
    while (true) {
      const ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by daemon");
      if (c == '\n') break;
      response.push_back(c);
    }
    return response;
  }

  /// One round trip, parsed.
  Json round_trip(const std::string& request) {
    const std::string response = raw_round_trip(request);
    std::string error;
    std::optional<Json> parsed = Json::parse(response, error);
    if (!parsed) {
      throw std::runtime_error("bad response from daemon: " + error);
    }
    return std::move(*parsed);
  }

 private:
  static std::string error_text() { return std::strerror(errno); }
  int fd_ = -1;
};

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  std::uint16_t port = 0;
  std::string scenario, program_path, log_path, bad, good, probe_tuple;
  std::string stream, ingest_open_name, ingest_name, events_path;
  std::size_t ingest_batch = 0;  // 0 = the whole file in one request
  bool auto_reference = false, minimize = false, bypass_cache = false;
  bool stats = false, shutdown = false, meta = false;
  bool explain = false, flightrec = false, slowz = false;
  std::uint64_t trace_id = 0;  // 0 = mint one per invocation
  std::optional<std::uint64_t> poll_id, cancel_id;

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
        auto text = read_file(*v);
        if (!text) {
          std::cerr << "cannot open " << *v << "\n";
          return 2;
        }
        port = static_cast<std::uint16_t>(std::stoul(*text));
      } else if (arg == "--scenario") {
        auto v = next("a name");
        if (!v) return 2;
        scenario = *v;
      } else if (arg == "--program") {
        auto v = next("a path");
        if (!v) return 2;
        program_path = *v;
      } else if (arg == "--log") {
        auto v = next("a path");
        if (!v) return 2;
        log_path = *v;
      } else if (arg == "--bad") {
        auto v = next("an event tuple");
        if (!v) return 2;
        bad = *v;
      } else if (arg == "--good") {
        auto v = next("an event tuple");
        if (!v) return 2;
        good = *v;
      } else if (arg == "--auto-reference") {
        auto_reference = true;
      } else if (arg == "--minimize") {
        minimize = true;
      } else if (arg == "--bypass-cache") {
        bypass_cache = true;
      } else if (arg == "--stream") {
        auto v = next("a stream name");
        if (!v) return 2;
        stream = *v;
      } else if (arg == "--ingest-open") {
        auto v = next("a stream name");
        if (!v) return 2;
        ingest_open_name = *v;
      } else if (arg == "--ingest") {
        auto v = next("a stream name");
        if (!v) return 2;
        ingest_name = *v;
      } else if (arg == "--events") {
        auto v = next("a path (\"-\" = stdin)");
        if (!v) return 2;
        events_path = *v;
      } else if (arg == "--batch") {
        auto v = next("events per request");
        if (!v) return 2;
        ingest_batch = std::stoul(*v);
      } else if (arg == "--probe") {
        auto v = next("a tuple");
        if (!v) return 2;
        probe_tuple = *v;
      } else if (arg == "--poll") {
        auto v = next("an id");
        if (!v) return 2;
        poll_id = std::stoull(*v);
      } else if (arg == "--cancel") {
        auto v = next("an id");
        if (!v) return 2;
        cancel_id = std::stoull(*v);
      } else if (arg == "--stats") {
        stats = true;
      } else if (arg == "--flightrec") {
        flightrec = true;
      } else if (arg == "--slowz") {
        slowz = true;
      } else if (arg == "--shutdown") {
        shutdown = true;
      } else if (arg == "--meta") {
        meta = true;
      } else if (arg == "--explain") {
        explain = true;
      } else if (arg == "--trace-id") {
        auto v = next("1-16 hex digits");
        if (!v) return 2;
        if (!dp::obs::parse_trace_id(*v, trace_id)) {
          std::cerr << "--trace-id must be 1-16 hex digits (nonzero)\n";
          return 2;
        }
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
  if (port == 0) {
    std::cerr << "pass --port or --port-file\n" << kUsage;
    return 2;
  }

  if (trace_id == 0) trace_id = mint_trace_id();
  const std::string trace_field =
      ",\"trace\":" + json_quote(dp::obs::format_trace_id(trace_id));

  try {
    Connection connection(port);

    if (flightrec) {
      const std::string raw =
          connection.raw_round_trip("{\"op\":\"flightrec\"}");
      std::string error;
      const std::optional<Json> response = Json::parse(raw, error);
      if (!response || !response->get_bool("ok")) {
        std::cerr << (response
                          ? response->get_string("error", "flightrec failed")
                          : "bad response: " + error)
                  << "\n";
        return 3;
      }
      // Raw JSON: the dump is for jq/scripts as much as eyeballs.
      std::cout << raw << "\n";
      return 0;
    }
    if (slowz) {
      const std::string raw = connection.raw_round_trip("{\"op\":\"slowz\"}");
      std::string error;
      const std::optional<Json> response = Json::parse(raw, error);
      if (!response || !response->get_bool("ok")) {
        std::cerr << (response ? response->get_string("error", "slowz failed")
                               : "bad response: " + error)
                  << "\n";
        return 3;
      }
      // Same document /slowz serves, as raw JSON for jq/scripts.
      std::cout << raw << "\n";
      return 0;
    }
    if (stats) {
      const std::string raw = connection.raw_round_trip("{\"op\":\"stats\"}");
      std::string error;
      const std::optional<Json> response = Json::parse(raw, error);
      if (!response || !response->get_bool("ok")) {
        std::cerr << (response ? response->get_string("error", "stats failed")
                               : "bad response: " + error)
                  << "\n";
        return 3;
      }
      // Stats go to scripts as much as humans: print the raw JSON line.
      std::cout << raw << "\n";
      return 0;
    }
    if (shutdown) {
      const Json response = connection.round_trip("{\"op\":\"shutdown\"}");
      if (!response.get_bool("ok")) {
        std::cerr << response.get_string("error", "shutdown failed") << "\n";
        return 3;
      }
      std::cout << "daemon shutting down\n";
      return 0;
    }
    if (cancel_id) {
      const Json response = connection.round_trip(
          "{\"op\":\"cancel\",\"id\":" + std::to_string(*cancel_id) + "}");
      std::cout << (response.get_bool("cancelled") ? "cancelled\n"
                                                   : "too late to cancel\n");
      return response.get_bool("ok") ? 0 : 3;
    }
    if (!probe_tuple.empty()) {
      if (scenario.empty()) {
        std::cerr << "--probe needs --scenario\n";
        return 2;
      }
      const Json response = connection.round_trip(
          "{\"op\":\"probe\",\"scenario\":" + json_quote(scenario) +
          ",\"tuple\":" + json_quote(probe_tuple) + trace_field + "}");
      if (!response.get_bool("ok")) {
        std::cerr << response.get_string("error", "probe failed") << "\n";
        return 3;
      }
      std::cout << (response.get_bool("live") ? "live\n" : "not live\n");
      return response.get_bool("live") ? 0 : 1;
    }
    if (!ingest_open_name.empty()) {
      std::ostringstream request;
      request << "{\"op\":\"ingest_open\",\"stream\":"
              << json_quote(ingest_open_name);
      if (!scenario.empty()) {
        request << ",\"scenario\":" << json_quote(scenario);
      } else if (!program_path.empty()) {
        const auto program_text = read_file(program_path);
        if (!program_text) {
          std::cerr << "cannot open " << program_path << "\n";
          return 2;
        }
        request << ",\"program\":" << json_quote(*program_text);
      } else {
        std::cerr << "--ingest-open needs --scenario or --program\n";
        return 2;
      }
      request << "}";
      const Json response = connection.round_trip(request.str());
      if (!response.get_bool("ok")) {
        std::cerr << response.get_string("error", "ingest_open failed")
                  << "\n";
        return 3;
      }
      std::cout << "stream " << ingest_open_name << " open\n";
      return 0;
    }
    if (!ingest_name.empty()) {
      if (events_path.empty()) {
        std::cerr << "--ingest needs --events FILE (\"-\" = stdin)\n";
        return 2;
      }
      std::string events_text;
      if (events_path == "-") {
        std::ostringstream buffer;
        buffer << std::cin.rdbuf();
        events_text = buffer.str();
      } else {
        const auto text = read_file(events_path);
        if (!text) {
          std::cerr << "cannot open " << events_path << "\n";
          return 2;
        }
        events_text = *text;
      }
      // Streaming mode: --batch N sends N event lines per request over the
      // one connection, the live-tap shape (events trickle in, the daemon's
      // graph stays current); the default ships the file in one request.
      std::vector<std::string> batches;
      if (ingest_batch == 0) {
        batches.push_back(std::move(events_text));
      } else {
        std::istringstream lines(events_text);
        std::string line, batch;
        std::size_t in_batch = 0;
        while (std::getline(lines, line)) {
          batch += line;
          batch += '\n';
          if (++in_batch >= ingest_batch) {
            batches.push_back(std::move(batch));
            batch.clear();
            in_batch = 0;
          }
        }
        if (!batch.empty()) batches.push_back(std::move(batch));
      }
      std::size_t accepted = 0;
      Json last;
      for (const std::string& batch : batches) {
        std::ostringstream request;
        request << "{\"op\":\"ingest\",\"stream\":" << json_quote(ingest_name)
                << ",\"events\":" << json_quote(batch) << "}";
        last = connection.round_trip(request.str());
        if (!last.get_bool("ok")) {
          std::cerr << last.get_string("error", "ingest failed") << "\n";
          return 3;
        }
        accepted += static_cast<std::size_t>(last.get_number("accepted"));
      }
      const Json* s = last.find("stream");
      std::cout << "ingested " << accepted << " events into " << ingest_name;
      if (s != nullptr && s->kind == Json::Kind::kObject) {
        std::cout << " (total "
                  << static_cast<long long>(s->get_number("events"))
                  << " events)";
      }
      std::cout << "\n";
      return 0;
    }
    if (poll_id) {
      const Json response = connection.round_trip(
          "{\"op\":\"poll\",\"id\":" + std::to_string(*poll_id) + "}");
      if (!response.get_bool("ok")) {
        std::cerr << response.get_string("error", "poll failed") << "\n";
        return 3;
      }
      const std::string state = response.get_string("state");
      if (state != "done") {
        std::cout << state << "\n";
        return 0;
      }
      std::cerr << response.get_string("err");
      std::cout << response.get_string("out");
      return static_cast<int>(response.get_number("exit_code", 1));
    }

    // Submit + wait.
    std::ostringstream request;
    request << "{\"op\":\"submit\"";
    if (!stream.empty()) {
      request << ",\"stream\":" << json_quote(stream);
    } else if (!scenario.empty()) {
      request << ",\"scenario\":" << json_quote(scenario);
    } else if (!program_path.empty() && !log_path.empty()) {
      const auto program_text = read_file(program_path);
      const auto log_text = read_file(log_path);
      if (!program_text || !log_text) {
        std::cerr << "cannot open " << (!program_text ? program_path : log_path)
                  << "\n";
        return 2;
      }
      request << ",\"program\":" << json_quote(*program_text)
              << ",\"log\":" << json_quote(*log_text);
    } else {
      std::cerr << kUsage;
      return 2;
    }
    if (!bad.empty()) request << ",\"bad\":" << json_quote(bad);
    if (!good.empty()) request << ",\"good\":" << json_quote(good);
    if (auto_reference) request << ",\"auto_reference\":true";
    if (minimize) request << ",\"minimize\":true";
    if (bypass_cache) request << ",\"bypass_cache\":true";
    request << trace_field << "}";

    const Json submitted = connection.round_trip(request.str());
    if (!submitted.get_bool("ok")) {
      if (submitted.get_bool("shed")) {
        std::cerr << "shed: " << submitted.get_string("error") << "\n";
        return 3;
      }
      std::cerr << submitted.get_string("error", "submit failed") << "\n";
      return 2;
    }
    const auto id = static_cast<std::uint64_t>(submitted.get_number("id"));
    const Json response = connection.round_trip(
        "{\"op\":\"wait\",\"id\":" + std::to_string(id) + "}");
    if (!response.get_bool("ok")) {
      std::cerr << response.get_string("error", "wait failed") << "\n";
      return 3;
    }
    if (response.get_string("state") != "done") {
      std::cerr << "query " << response.get_string("state") << "\n";
      return 3;
    }
    if (meta) {
      std::cerr << "id " << id << " trace "
                << dp::obs::format_trace_id(trace_id) << " cache_hit "
                << (response.get_bool("cache_hit") ? "yes" : "no")
                << " coalesced "
                << (response.get_bool("coalesced") ? "yes" : "no")
                << " queue_us " << response.get_number("queue_us")
                << " exec_us " << response.get_number("exec_us") << "\n";
    }
    // Explain goes to stderr: stdout stays byte-identical to the one-shot
    // CLI's diagnosis report (the CI smoke diffs them).
    if (explain) print_explain(response, std::cerr);
    std::cerr << response.get_string("err");
    std::cout << response.get_string("out");
    return static_cast<int>(response.get_number("exit_code", 1));
  } catch (const std::exception& e) {
    std::cerr << "diffprov_client: " << e.what() << "\n";
    return 3;
  }
}
