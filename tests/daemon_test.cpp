// Tests for the diffprovd transport: the NDJSON protocol handler (no
// sockets) and the loopback TCP daemon end-to-end -- a raw socket client
// submits queries and the served bytes must equal the in-process CLI's
// stdout exactly.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json_check.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "service/service.h"
#include "tools/cli.h"

namespace dp::service {
namespace {

using obs::Json;
using obs::json_quote;

std::string cli_stdout(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  cli::run(args, out, err);
  return out.str();
}

Json parse_ok(const std::string& line) {
  std::string error;
  auto json = Json::parse(line, error);
  EXPECT_TRUE(json.has_value()) << error << " in: " << line;
  return json.value_or(Json{});
}

// ------------------------------------------------------------ protocol --

TEST(Protocol, SubmitWaitRoundTripCarriesTheReport) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  bool shutdown_requested = false;
  const Json submitted = parse_ok(handle_request(
      service, R"({"op":"submit","scenario":"sdn1"})", shutdown_requested));
  ASSERT_TRUE(submitted.get_bool("ok"));
  const auto id = static_cast<std::uint64_t>(submitted.get_number("id"));

  const Json done = parse_ok(handle_request(
      service, "{\"op\":\"wait\",\"id\":" + std::to_string(id) + "}",
      shutdown_requested));
  ASSERT_TRUE(done.get_bool("ok"));
  EXPECT_EQ(done.get_string("state"), "done");
  EXPECT_EQ(done.get_string("out"), cli_stdout({"--scenario", "sdn1"}));
  EXPECT_EQ(done.get_number("exit_code", -1), 0);
  EXPECT_FALSE(shutdown_requested);
}

TEST(Protocol, MalformedAndUnknownRequestsAreCleanErrors) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown_requested = false;

  for (const char* line :
       {"this is not json", "[1,2,3]", "{\"op\":\"frobnicate\"}",
        R"({"op":"poll"})", R"({"op":"poll","id":"seven"})",
        R"({"op":"submit","scenario":"nope"})",
        R"({"op":"probe","scenario":"sdn1"})"}) {
    const Json response =
        parse_ok(handle_request(service, line, shutdown_requested));
    EXPECT_FALSE(response.get_bool("ok")) << line;
    EXPECT_FALSE(response.get_string("error").empty()) << line;
  }
  EXPECT_FALSE(shutdown_requested);

  const Json unknown = parse_ok(handle_request(
      service, R"({"op":"poll","id":999999})", shutdown_requested));
  EXPECT_FALSE(unknown.get_bool("ok"));
}

TEST(Protocol, ShutdownOpSetsTheFlag) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown_requested = false;
  const Json response = parse_ok(
      handle_request(service, R"({"op":"shutdown"})", shutdown_requested));
  EXPECT_TRUE(response.get_bool("ok"));
  EXPECT_TRUE(shutdown_requested);
}

TEST(Protocol, StatsReportsCountersAsJson) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown_requested = false;

  const Json submitted = parse_ok(handle_request(
      service, R"({"op":"submit","scenario":"sdn1"})", shutdown_requested));
  handle_request(service,
                 "{\"op\":\"wait\",\"id\":" +
                     std::to_string(static_cast<std::uint64_t>(
                         submitted.get_number("id"))) +
                     "}",
                 shutdown_requested);

  const Json stats =
      parse_ok(handle_request(service, R"({"op":"stats"})", shutdown_requested));
  ASSERT_TRUE(stats.get_bool("ok"));
  const Json* inner = stats.find("stats");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->get_number("submitted"), 1);
  EXPECT_EQ(inner->get_number("runs"), 1);
  ASSERT_NE(inner->find("per_session"), nullptr);
  // Shard visibility: the count plus one queue-depth entry per shard.
  EXPECT_EQ(inner->get_number("shards"), 1);
  const Json* depths = inner->find("shard_queue_depths");
  ASSERT_NE(depths, nullptr);
  ASSERT_EQ(depths->kind, Json::Kind::kArray);
  EXPECT_EQ(depths->array.size(), 1u);
}

// -------------------------------------------------------------- daemon --

/// Minimal blocking line client against 127.0.0.1:port.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return connected_; }

  std::string round_trip(const std::string& request) {
    std::string line = request + "\n";
    EXPECT_EQ(::send(fd_, line.data(), line.size(), 0),
              static_cast<ssize_t>(line.size()));
    std::string response;
    char c = 0;
    while (::recv(fd_, &c, 1, 0) == 1 && c != '\n') response.push_back(c);
    return response;
  }

  /// Sends raw bytes (no newline framing) and reads until the server closes
  /// the connection -- the shape of an HTTP exchange.
  std::string raw_round_trip(const std::string& request) {
    EXPECT_EQ(::send(fd_, request.data(), request.size(), 0),
              static_cast<ssize_t>(request.size()));
    std::string response;
    char chunk[4096];
    ssize_t n = 0;
    while ((n = ::recv(fd_, chunk, sizeof(chunk), 0)) > 0) {
      response.append(chunk, static_cast<std::size_t>(n));
    }
    return response;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

struct DaemonFixture {
  explicit DaemonFixture(std::size_t shards = 1)
      : service(make_config(shards)), daemon(service, /*port=*/0) {
    server = std::thread([this] { daemon.serve(); });
  }
  ~DaemonFixture() {
    daemon.stop();
    server.join();
    service.shutdown();
  }
  ServiceConfig make_config(std::size_t shards) {
    ServiceConfig config;
    config.shards = shards;
    config.workers = 2;
    config.metrics = &registry;
    return config;
  }

  obs::MetricsRegistry registry;
  DiagnosisService service;
  Daemon daemon;
  std::thread server;
};

TEST(Daemon, ServesByteIdenticalReportsOverTcp) {
  DaemonFixture fixture;
  TestClient client(fixture.daemon.port());
  ASSERT_TRUE(client.connected());

  const Json submitted = parse_ok(
      client.round_trip(R"({"op":"submit","scenario":"sdn1"})"));
  ASSERT_TRUE(submitted.get_bool("ok")) << submitted.get_string("error");
  const auto id = static_cast<std::uint64_t>(submitted.get_number("id"));
  const Json done = parse_ok(
      client.round_trip("{\"op\":\"wait\",\"id\":" + std::to_string(id) + "}"));
  ASSERT_EQ(done.get_string("state"), "done");
  // The served report survives JSON escaping and the socket byte-for-byte.
  EXPECT_EQ(done.get_string("out"), cli_stdout({"--scenario", "sdn1"}));
}

TEST(Daemon, ConcurrentConnectionsShareTheCache) {
  DaemonFixture fixture;

  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&fixture, &failures] {
      TestClient client(fixture.daemon.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      const Json submitted = parse_ok(
          client.round_trip(R"({"op":"submit","scenario":"sdn2"})"));
      if (!submitted.get_bool("ok")) {
        ++failures;
        return;
      }
      const Json done = parse_ok(client.round_trip(
          "{\"op\":\"wait\",\"id\":" +
          std::to_string(static_cast<std::uint64_t>(
              submitted.get_number("id"))) +
          "}"));
      if (done.get_string("state") != "done") ++failures;
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  // All four connections asked the same question: one underlying run.
  EXPECT_EQ(fixture.registry.counter("dp.service.runs").value(), 1u);
}

TEST(Daemon, ShardedServiceServesByteIdenticalReportsAndShardStats) {
  DaemonFixture fixture(/*shards=*/4);

  // Concurrent clients across all four scenarios: queries route to
  // different shards, bytes still match the CLI exactly.
  std::vector<std::thread> clients;
  std::atomic<int> failures{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&fixture, &failures, t] {
      const std::string scenario = "sdn" + std::to_string(1 + t);
      TestClient client(fixture.daemon.port());
      if (!client.connected()) {
        ++failures;
        return;
      }
      const Json submitted = parse_ok(client.round_trip(
          R"({"op":"submit","scenario":")" + scenario + "\"}"));
      if (!submitted.get_bool("ok")) {
        ++failures;
        return;
      }
      const Json done = parse_ok(client.round_trip(
          "{\"op\":\"wait\",\"id\":" +
          std::to_string(static_cast<std::uint64_t>(
              submitted.get_number("id"))) +
          "}"));
      if (done.get_string("state") != "done" ||
          done.get_string("out") != cli_stdout({"--scenario", scenario})) {
        ++failures;
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);

  TestClient client(fixture.daemon.port());
  ASSERT_TRUE(client.connected());
  const Json stats = parse_ok(client.round_trip(R"({"op":"stats"})"));
  ASSERT_TRUE(stats.get_bool("ok"));
  const Json* inner = stats.find("stats");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->get_number("shards"), 4);
  const Json* depths = inner->find("shard_queue_depths");
  ASSERT_NE(depths, nullptr);
  EXPECT_EQ(depths->array.size(), 4u);
  EXPECT_EQ(inner->get_number("runs"), 4);
}

TEST(Daemon, MalformedLinesGetErrorResponsesNotDisconnects) {
  DaemonFixture fixture;
  TestClient client(fixture.daemon.port());
  ASSERT_TRUE(client.connected());

  const Json bad = parse_ok(client.round_trip("{{{{"));
  EXPECT_FALSE(bad.get_bool("ok"));
  // The connection survives for the next, valid request.
  const Json stats = parse_ok(client.round_trip(R"({"op":"stats"})"));
  EXPECT_TRUE(stats.get_bool("ok"));
}

TEST(Daemon, ProbeWorksOverTheWire) {
  DaemonFixture fixture;
  TestClient client(fixture.daemon.port());
  ASSERT_TRUE(client.connected());

  const std::string request =
      std::string(R"({"op":"probe","scenario":"sdn1","tuple":)") +
      json_quote("policyRoute(@ctl, \"sw2\", 100, 4.3.2.0/24, \"sw6\")") + "}";
  const Json response = parse_ok(client.round_trip(request));
  ASSERT_TRUE(response.get_bool("ok")) << response.get_string("error");
  EXPECT_TRUE(response.get_bool("live"));
}

// ----------------------------------------- trace field + introspection --

TEST(Protocol, TraceFieldValidationRejectsMalformedIds) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown_requested = false;

  struct Case {
    const char* request;
    const char* expect_in_error;
  };
  const Case cases[] = {
      {R"({"op":"submit","scenario":"sdn1","trace":123})",
       "must be a string of hex digits"},
      {R"({"op":"submit","scenario":"sdn1","trace":"xyz"})",
       "not a nonzero hex trace id"},
      {R"({"op":"submit","scenario":"sdn1","trace":"0"})",
       "not a nonzero hex trace id"},
      {R"({"op":"submit","scenario":"sdn1","trace":"12345678901234567"})",
       "exceeds 16 hex digits"},
      {R"json({"op":"probe","scenario":"sdn1","tuple":"x()","trace":"zz"})json",
       "not a nonzero hex trace id"},
  };
  for (const Case& c : cases) {
    const Json response =
        parse_ok(handle_request(service, c.request, shutdown_requested));
    EXPECT_FALSE(response.get_bool("ok")) << c.request;
    const std::string error = response.get_string("error");
    EXPECT_NE(error.find("trace parse error"), std::string::npos) << error;
    EXPECT_NE(error.find(c.expect_in_error), std::string::npos) << error;
  }
  // A malformed trace id is rejected at the wire: nothing was admitted.
  EXPECT_EQ(registry.counter("dp.service.submitted").value(), 0u);
}

TEST(Protocol, TraceIdRoundTripsOntoEverySpanAndIntoTheProfile) {
  obs::default_tracer().clear();
  obs::default_tracer().set_enabled(true);
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown_requested = false;

  const Json submitted = parse_ok(handle_request(
      service, R"({"op":"submit","scenario":"sdn1","trace":"deadbeef"})",
      shutdown_requested));
  ASSERT_TRUE(submitted.get_bool("ok")) << submitted.get_string("error");
  const Json done = parse_ok(handle_request(
      service,
      "{\"op\":\"wait\",\"id\":" +
          std::to_string(
              static_cast<std::uint64_t>(submitted.get_number("id"))) +
          "}",
      shutdown_requested));
  obs::default_tracer().set_enabled(false);
  ASSERT_EQ(done.get_string("state"), "done");

  // The finished response carries the explain profile, stamped with the
  // client-minted trace id.
  const Json* profile = done.find("profile");
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->get_string("trace_id"), "deadbeef");
  ASSERT_NE(profile->find("phases"), nullptr);

  // One coherent trace: the worker installed the propagated context, so
  // every span the diagnosis recorded -- service, session, runtime, all on
  // worker threads -- carries the minted id, and no other nonzero id ever
  // appears in this process.
  std::size_t tagged = 0;
  bool saw_service_span = false;
  for (const obs::TraceEvent& event : obs::default_tracer().events()) {
    EXPECT_TRUE(event.trace_id == 0 || event.trace_id == 0xdeadbeefull)
        << event.name;
    if (event.trace_id == 0xdeadbeefull) ++tagged;
    if (event.name == "dp.service.run") {
      saw_service_span = true;
      EXPECT_EQ(event.trace_id, 0xdeadbeefull);
    }
  }
  obs::default_tracer().clear();
  EXPECT_TRUE(saw_service_span);
  EXPECT_GT(tagged, 1u) << "the trace id must propagate past the root span";
}

TEST(Protocol, FlightrecOpReturnsTheRingDump) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  recorder.record_span("dp.test.marker", 0x77, 3);

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown_requested = false;
  const Json response = parse_ok(
      handle_request(service, R"({"op":"flightrec"})", shutdown_requested));
  recorder.set_enabled(false);
  recorder.clear();

  ASSERT_TRUE(response.get_bool("ok"));
  const Json* dump = response.find("flightrec");
  ASSERT_NE(dump, nullptr);
  EXPECT_TRUE(dump->get_bool("enabled"));
  const Json* events = dump->find("events");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, Json::Kind::kArray);
  bool saw_marker = false;
  for (const Json& event : events->array) {
    if (event.get_string("name") == "dp.test.marker") {
      saw_marker = true;
      EXPECT_EQ(event.get_string("trace_id"), "77");
    }
  }
  EXPECT_TRUE(saw_marker);
}

// ------------------------------------------------- HTTP GET fast path --

/// Sends one raw HTTP request and returns the full response (to EOF: the
/// daemon answers with Connection: close).
std::string http_get(std::uint16_t port, const std::string& path) {
  TestClient client(port);
  EXPECT_TRUE(client.connected());
  return client.raw_round_trip("GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n");
}

std::string http_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(Daemon, MetricsEndpointServesValidPrometheusText) {
  DaemonFixture fixture;
  // Run one query so the scrape has real latency histograms in it.
  TestClient client(fixture.daemon.port());
  ASSERT_TRUE(client.connected());
  const Json submitted = parse_ok(
      client.round_trip(R"({"op":"submit","scenario":"sdn1"})"));
  ASSERT_TRUE(submitted.get_bool("ok"));
  client.round_trip("{\"op\":\"wait\",\"id\":" +
                    std::to_string(static_cast<std::uint64_t>(
                        submitted.get_number("id"))) +
                    "}");

  const std::string response = http_get(fixture.daemon.port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);

  const obs::PrometheusCheck check =
      obs::check_prometheus_text(http_body(response));
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_TRUE(check.names.count("dp_service_submitted"));
  EXPECT_TRUE(check.names.count("dp_service_exec_us"));
}

TEST(Daemon, HealthzAndTracezAnswerAndUnknownPathsGet404) {
  DaemonFixture fixture;
  obs::Recorder::instance().set_enabled(true);

  const std::string health = http_get(fixture.daemon.port(), "/healthz");
  EXPECT_EQ(health.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_EQ(http_body(health), "ok\n");

  const std::string tracez =
      http_get(fixture.daemon.port(), "/tracez?since=0");
  obs::Recorder::instance().set_enabled(false);
  obs::Recorder::instance().clear();
  EXPECT_EQ(tracez.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(tracez.find("Content-Type: application/json"), std::string::npos);
  std::string error;
  EXPECT_TRUE(Json::parse(http_body(tracez), error).has_value()) << error;

  const std::string missing = http_get(fixture.daemon.port(), "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found", 0), 0u);

  // HTTP traffic never disturbs the NDJSON side: a protocol client on a
  // fresh connection still works.
  TestClient client(fixture.daemon.port());
  ASSERT_TRUE(client.connected());
  const Json stats = parse_ok(client.round_trip(R"({"op":"stats"})"));
  EXPECT_TRUE(stats.get_bool("ok"));
}

// ------------------------------------------------- slow-query capture --

TEST(Daemon, SlowQueryCaptureCarriesTraceProfileAndProfilerSlice) {
  obs::Recorder::instance().clear();
  obs::Recorder::instance().start_sampler(std::chrono::milliseconds(2));

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  config.workers = 2;
  // Floor 0 = purely adaptive threshold; the sketch is empty before the
  // first query, so that query always trips capture (the CI smoke relies on
  // the same arming).
  config.slow_ms = 0;
  DiagnosisService service(config);
  Daemon daemon(service, /*port=*/0);
  std::thread server([&daemon] { daemon.serve(); });

  // Scoped so the connection closes before daemon.stop(): serve() joins its
  // per-connection handlers, and a handler blocks on a still-open client.
  {
    TestClient client(daemon.port());
    ASSERT_TRUE(client.connected());
    const Json submitted = parse_ok(client.round_trip(
        R"({"op":"submit","scenario":"sdn1","trace":"c0ffee"})"));
    ASSERT_TRUE(submitted.get_bool("ok")) << submitted.get_string("error");
    const Json done = parse_ok(client.round_trip(
        "{\"op\":\"wait\",\"id\":" +
        std::to_string(
            static_cast<std::uint64_t>(submitted.get_number("id"))) +
        "}"));
    ASSERT_EQ(done.get_string("state"), "done");

    // The journal is populated before the ticket completes, so the entry is
    // visible as soon as wait returns -- over the NDJSON op...
    const Json slowz = parse_ok(client.round_trip(R"({"op":"slowz"})"));
    ASSERT_TRUE(slowz.get_bool("ok"));
    const Json* journal = slowz.find("slowz");
    ASSERT_NE(journal, nullptr);
    EXPECT_GE(journal->get_number("captured"), 1);
    const Json* entries = journal->find("entries");
    ASSERT_NE(entries, nullptr);
    ASSERT_EQ(entries->kind, Json::Kind::kArray);
    bool found = false;
    for (const Json& entry : entries->array) {
      if (entry.get_string("trace_id") != "c0ffee") continue;
      found = true;
      EXPECT_GT(entry.get_number("exec_us"), 0);
      EXPECT_GE(entry.get_number("exec_us"), entry.get_number("threshold_us"));
      // The entry carries the query's explain phase profile...
      const Json* profile = entry.find("profile");
      ASSERT_NE(profile, nullptr);
      EXPECT_EQ(profile->kind, Json::Kind::kObject);
      EXPECT_GT(profile->get_number("total_us"), 0);
      EXPECT_EQ(profile->get_string("trace_id"), "c0ffee");
      // ...and a non-empty collapsed-stack slice from the scope profiler (the
      // capture path's own span guarantees at least one live frame).
      EXPECT_FALSE(entry.get_string("slice").empty());
    }
    EXPECT_TRUE(found) << slowz.get_string("error");
    EXPECT_GE(registry.counter("dp.service.slow.captured").value(), 1u);
  }

  // ...and over the HTTP endpoint, same document.
  const std::string http = http_get(daemon.port(), "/slowz");
  EXPECT_EQ(http.rfind("HTTP/1.1 200 OK", 0), 0u);
  EXPECT_NE(http.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(http_body(http).find("c0ffee"), std::string::npos);

  // /profilez serves the sampler's collapsed stacks while it runs.
  const std::string profilez = http_get(daemon.port(), "/profilez");
  EXPECT_EQ(profilez.rfind("HTTP/1.1 200 OK", 0), 0u);

  daemon.stop();
  server.join();
  service.shutdown();
  obs::Recorder::instance().stop_sampler();
  obs::Recorder::instance().set_enabled(false);
  obs::Recorder::instance().clear();
}

TEST(Daemon, NegativeSlowFloorDisablesCapture) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  config.slow_ms = -1;
  DiagnosisService service(config);
  bool shutdown_requested = false;

  const Json submitted = parse_ok(handle_request(
      service, R"({"op":"submit","scenario":"sdn1"})", shutdown_requested));
  ASSERT_TRUE(submitted.get_bool("ok"));
  handle_request(service,
                 "{\"op\":\"wait\",\"id\":" +
                     std::to_string(static_cast<std::uint64_t>(
                         submitted.get_number("id"))) +
                     "}",
                 shutdown_requested);

  const Json slowz = parse_ok(
      handle_request(service, R"({"op":"slowz"})", shutdown_requested));
  ASSERT_TRUE(slowz.get_bool("ok"));
  const Json* journal = slowz.find("slowz");
  ASSERT_NE(journal, nullptr);
  EXPECT_EQ(journal->get_number("captured"), 0);
  EXPECT_EQ(registry.counter("dp.service.slow.captured").value(), 0u);
}

}  // namespace
}  // namespace dp::service
