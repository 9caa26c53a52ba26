// Tests for live streams -- warm sessions whose log grows
// (service/session.h): byte-identity of stream diagnoses with the one-shot
// CLI's batch replay (the contract: a diagnosis against the fed engine
// equals a cold replay of the same prefix, bit for bit), stale-append
// rebuilds, batch validation, and the service-level wiring: stream queries,
// the ingest_snapshot_us explain phase, NDJSON ingest ops, a stream cooled
// by the budget, and the TSan target where appenders, queries, and stats
// readers race on one stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ndlog/parser.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "service/diagnose.h"
#include "service/problem.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "tools/cli.h"

namespace dp::service {
namespace {

constexpr const char* kAllScenarios[] = {
    "sdn1", "sdn2", "sdn3", "sdn4",
    "DNS-stale-record", "DNS-stale-replica", "mr1-d", "mr2-d"};

/// A built-in scenario with its log in arrival (time) order: scenario logs
/// group records by kind, but the stream's append contract is
/// watermark-monotone. The stable sort preserves batch replay's (time,
/// log-order) processing order, so diagnoses over the sorted log are
/// byte-identical to the authored scenario (the full-log tests below check
/// that against the CLI directly).
Problem scenario(const std::string& name) {
  std::ostringstream err;
  auto problem = builtin_scenario(name, err);
  EXPECT_TRUE(problem.has_value()) << err.str();
  std::vector<LogRecord> records = problem->log.records();
  std::stable_sort(
      records.begin(), records.end(),
      [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  EventLog sorted;
  for (const LogRecord& record : records) sorted.append(record);
  problem->log = std::move(sorted);
  return std::move(*problem);
}

DiagnoseSpec spec_for(const Problem& problem) {
  DiagnoseSpec spec;
  spec.good_event = problem.good_event;
  spec.bad_event = *problem.bad_event;
  return spec;
}

EventLog prefix_log(const EventLog& log, std::size_t n) {
  EventLog prefix;
  for (std::size_t i = 0; i < n && i < log.size(); ++i) {
    prefix.append(log.records()[i]);
  }
  return prefix;
}

/// The cold oracle: a one-shot diagnosis over `n` records of the scenario
/// log, exactly what the CLI would compute for the same prefix.
DiagnoseOutcome cold_answer(const Problem& problem, std::size_t n) {
  Problem prefix{problem.program, problem.topology, prefix_log(problem.log, n),
                 problem.good_event, problem.bad_event};
  return diagnose_problem(prefix, spec_for(problem), ReplayOptions{});
}

void expect_same_answer(const DiagnoseOutcome& live,
                        const DiagnoseOutcome& cold,
                        const std::string& what) {
  EXPECT_EQ(live.out, cold.out) << what;
  EXPECT_EQ(live.err, cold.err) << what;
  EXPECT_EQ(live.exit_code, cold.exit_code) << what;
}

/// Diagnoses against the stream's fed run and checks the bytes against a
/// cold replay of the same prefix. Caller holds the stream's mutex.
void check_cut(WarmSession& stream, const Problem& problem, std::size_t n,
               const std::string& what) {
  auto run = stream.ensure_warm();
  const auto live = diagnose_problem(stream.problem(), spec_for(problem),
                                     ReplayOptions{}, run);
  expect_same_answer(live, cold_answer(problem, n), what);
}

// ------------------------------------------------------- byte identity --

TEST(IngestStream, ByteIdenticalToBatchReplayAtEveryCut) {
  for (const char* name : kAllScenarios) {
    const Problem problem = scenario(name);
    obs::MetricsRegistry registry;
    SessionManager sessions(8, 0, ReplayOptions{}, registry);
    const std::shared_ptr<WarmSession> opened =
        sessions.open_stream(name, problem);
    WarmSession& stream = *opened;
    std::lock_guard<std::mutex> lock(stream.mutex());

    // Cuts: an early prefix, two thirds of the log, and the full log.
    const std::size_t total = problem.log.size();
    ASSERT_GT(total, 0u) << name;
    std::vector<std::size_t> cuts = {std::min<std::size_t>(5, total),
                                     total - total / 3, total};
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::size_t fed = 0;
    std::uint64_t last_hash = stream.content_hash();
    for (const std::size_t cut : cuts) {
      for (; fed < cut; ++fed) stream.append(problem.log.records()[fed]);
      EXPECT_NE(stream.content_hash(), last_hash) << name;
      last_hash = stream.content_hash();
      check_cut(stream, problem, cut,
                std::string(name) + " cut@" + std::to_string(cut));
    }
    const SessionStats stats = stream.stats();
    EXPECT_EQ(stats.events, total);
    EXPECT_EQ(stats.queries, cuts.size()) << "one snapshot per query";
    EXPECT_EQ(stats.watermark, problem.log.records().back().time);
  }
}

TEST(IngestStream, SameTimeAppendRunsStraddlingEpochSealsStayIdentical) {
  // Live-tap appends that share a timestamp are left queued (a feed only
  // advances the engine when it is behind) and drain together at the next
  // query. Cut inside each same-time run and check every cut is still
  // byte-identical to a cold batch replay of the same prefix.
  Problem problem;
  problem.program = parse_program(R"(
    table src(2) keys(0, 1) base mutable.
    table hop(3) keys(0, 1) base mutable.
    table reach(3) derived event.
    rule r reach(@N, K, V) :- src(@N, K), hop(@N, K, V).
  )");
  EventLog log;
  for (int k = 0; k < 10; ++k) {  // one same-time run of 10 hops
    log.append_insert(Tuple("hop", {Value("n1"), Value(k), Value(k + 100)}),
                      1);
  }
  for (int k = 0; k < 10; ++k) {  // a second same-time run of 10 srcs
    log.append_insert(Tuple("src", {Value("n1"), Value(k)}), 2);
  }
  problem.log = log;
  problem.good_event = Tuple("reach", {Value("n1"), Value(0), Value(100)});
  problem.bad_event = Tuple("reach", {Value("n1"), Value(3), Value(103)});

  obs::MetricsRegistry registry;
  SessionManager sessions(8, 0, ReplayOptions{}, registry);
  const std::shared_ptr<WarmSession> opened =
      sessions.open_stream("straddle", problem);
  WarmSession& stream = *opened;
  std::lock_guard<std::mutex> lock(stream.mutex());
  std::size_t fed = 0;
  for (const std::size_t cut : {std::size_t{7}, std::size_t{13}, log.size()}) {
    for (; fed < cut; ++fed) stream.append(log.records()[fed]);
    check_cut(stream, problem, cut, "straddle cut@" + std::to_string(cut));
  }
}

TEST(IngestStream, StaleAppendFallsBackToOneRebuild) {
  const Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  SessionManager sessions(8, 0, ReplayOptions{}, registry);
  const std::shared_ptr<WarmSession> opened =
      sessions.open_stream("sdn1", problem);
  WarmSession& stream = *opened;
  std::lock_guard<std::mutex> lock(stream.mutex());
  const auto& records = problem.log.records();
  const std::size_t half = records.size() / 2;
  for (std::size_t i = 0; i < half; ++i) stream.append(records[i]);

  bool rebuilt = true;
  stream.ensure_warm(&rebuilt);
  EXPECT_FALSE(rebuilt) << "incremental feed needs no rebuild";

  // The query drained the engine to the watermark; appending another record
  // at that same time lands at-or-before the engine's clock and must cool
  // the stream instead of silently diverging.
  LogRecord stale = records[half];
  stale.time = stream.stats().watermark;
  stream.append(stale);
  for (std::size_t i = half + 1; i < records.size(); ++i) {
    LogRecord record = records[i];
    record.time = std::max(record.time, stale.time);
    stream.append(record);
  }

  stream.ensure_warm(&rebuilt);
  EXPECT_TRUE(rebuilt) << "post-quiescence append at the horizon rebuilds";
  EXPECT_EQ(stream.stats().live_rebuilds, 1u);

  // And the rebuilt answer still equals a cold replay of the same log.
  const auto live = diagnose_problem(stream.problem(), spec_for(problem),
                                     ReplayOptions{}, stream.ensure_warm());
  const auto cold =
      diagnose_problem(stream.problem(), spec_for(problem), ReplayOptions{});
  expect_same_answer(live, cold, "after rebuild");
  EXPECT_EQ(stream.stats().live_rebuilds, 1u) << "rebuild repairs, once";
}

TEST(IngestStream, RejectsOutOfOrderAndHalfBatches) {
  const Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  SessionManager sessions(8, 0, ReplayOptions{}, registry);
  const std::shared_ptr<WarmSession> opened =
      sessions.open_stream("sdn1", problem);
  WarmSession& stream = *opened;
  std::lock_guard<std::mutex> lock(stream.mutex());
  const std::string text = problem.log.to_text();
  const std::size_t appended = stream.append_text(text);
  EXPECT_EQ(appended, problem.log.size());
  const LogicalTime watermark = stream.stats().watermark;

  LogRecord behind = problem.log.records().front();
  behind.time = watermark - 1;
  EXPECT_THROW(stream.append(behind), std::exception);

  // A batch is all-or-nothing: a parse error (or an out-of-order record) in
  // line 2 must not apply line 1.
  const std::string head =
      "+ " + problem.log.records().back().tuple().to_string() + " @ " +
      std::to_string(watermark + 1) + "\n";
  const std::size_t before = stream.problem().log.size();
  EXPECT_THROW(stream.append_text(head + "not an event line\n"),
               std::exception);
  EXPECT_THROW(stream.append_text(
                   head + "+ " +
                   problem.log.records().front().tuple().to_string() + " @ 0\n"),
               std::exception);
  EXPECT_EQ(stream.problem().log.size(), before);
  EXPECT_EQ(stream.stats().watermark, watermark);
}

// ------------------------------------------------- service wiring --

QueryStatus wait_done(DiagnosisService& service, const SubmitOutcome& s) {
  EXPECT_TRUE(s.ok()) << s.error;
  auto status = service.wait(s.id);
  EXPECT_TRUE(status.has_value());
  return *status;
}

struct CliAnswer {
  int exit_code;
  std::string out;
  std::string err;
};

CliAnswer run_cli(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int exit_code = cli::run(args, out, err);
  return {exit_code, out.str(), err.str()};
}

TEST(IngestService, StreamQueriesAreByteIdenticalToTheCli) {
  const CliAnswer expected = run_cli({"--scenario", "sdn1"});
  const Problem problem = scenario("sdn1");

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  const IngestOutcome opened = service.open_stream("live", "sdn1");
  ASSERT_TRUE(opened.ok) << opened.error;
  EXPECT_EQ(opened.stream.events, 0u) << "streams open empty";

  // Feed in two halves with a diagnosis in between: the mid-stream answer
  // must match a cold run over the same prefix, the final one the full CLI.
  const std::string text = problem.log.to_text();
  std::vector<std::string> lines;
  std::istringstream split(text);
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  const std::size_t half = lines.size() / 2;
  std::string first_half, second_half;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    (i < half ? first_half : second_half) += lines[i] + "\n";
  }

  IngestOutcome fed = service.ingest("live", first_half);
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.accepted, half);

  Query query;
  query.stream = "live";
  const QueryStatus mid = wait_done(service, service.submit(query));
  ASSERT_EQ(mid.state, QueryState::kDone);
  const auto cold_mid = cold_answer(problem, half);
  EXPECT_EQ(mid.result.out, cold_mid.out);
  EXPECT_EQ(mid.result.err, cold_mid.err);
  EXPECT_EQ(mid.result.exit_code, cold_mid.exit_code);

  fed = service.ingest("live", second_half);
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.stream.events, lines.size());

  const QueryStatus full = wait_done(service, service.submit(query));
  EXPECT_EQ(full.result.out, expected.out);
  EXPECT_EQ(full.result.err, expected.err);
  EXPECT_EQ(full.result.exit_code, expected.exit_code);
  EXPECT_FALSE(full.cache_hit) << "the prefix grew; the old key is stale";

  // Same prefix again: the content-hash cache key serves it without a run.
  const QueryStatus again = wait_done(service, service.submit(query));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.result.out, expected.out);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ingest_streams, 1u);
  EXPECT_EQ(stats.ingest_events, lines.size());
  ASSERT_EQ(stats.per_stream.size(), 1u);
  EXPECT_EQ(stats.per_stream[0].first, "live");
  EXPECT_GT(stats.ingest_resident_bytes, 0u);
  EXPECT_NE(stats.to_text().find("ingest streams 1"), std::string::npos);
}

TEST(IngestService, ValidationAndIdempotentOpen) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  EXPECT_FALSE(service.open_stream("", "sdn1").ok);
  EXPECT_FALSE(service.open_stream("s", "").ok) << "needs scenario or program";
  EXPECT_FALSE(service.open_stream("s", "no-such-scenario").ok);

  const IngestOutcome first = service.open_stream("s", "sdn1");
  ASSERT_TRUE(first.ok) << first.error;
  const IngestOutcome again = service.open_stream("s", "sdn2");
  EXPECT_TRUE(again.ok) << "reopen is idempotent, program ignored";
  EXPECT_EQ(service.stats().ingest_streams, 1u);

  const IngestOutcome missing = service.ingest("ghost", "+ x(@a) @ 1");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("unknown ingest stream"), std::string::npos);
  EXPECT_NE(missing.error.find("ingest_open"), std::string::npos);

  Query query;
  query.stream = "ghost";
  const SubmitOutcome submit = service.submit(query);
  EXPECT_FALSE(submit.ok());
  EXPECT_NE(submit.error.find("unknown ingest stream"), std::string::npos);

  Query both;
  both.stream = "s";
  both.scenario = "sdn1";
  EXPECT_FALSE(service.submit(both).ok())
      << "a query names a stream or a scenario, not both";

  const IngestOutcome bad = service.ingest("s", "garbage");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(service.stats().per_stream.at(0).second.events, 0u);
}

TEST(IngestService, CooledStreamRewarmsByteIdentically) {
  // A stream is a session like any other: a 1-byte budget cools it once a
  // scenario query is more recent, appends to the cooled stream only extend
  // its log, and its next query replays that log -- one rebuild, same bytes
  // as a cold replay of the prefix.
  const Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  config.warm_bytes_budget = 1;
  DiagnosisService service(config);
  ASSERT_TRUE(service.open_stream("live", "sdn1").ok);

  std::vector<std::string> lines;
  std::istringstream split(problem.log.to_text());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  const std::size_t half = lines.size() / 2;
  std::string first_half, second_half;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    (i < half ? first_half : second_half) += lines[i] + "\n";
  }
  ASSERT_TRUE(service.ingest("live", first_half).ok);

  Query other;
  other.scenario = "sdn2";
  wait_done(service, service.submit(other));
  const auto stream_stats = [&] {
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.per_stream.size(), 1u);
    return stats.per_stream.at(0).second;
  };
  EXPECT_EQ(stream_stats().resident_bytes, 0u) << "the LRU stream cooled";

  const IngestOutcome fed = service.ingest("live", second_half);
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.stream.resident_bytes, 0u) << "a cold stream only logs";
  EXPECT_EQ(fed.stream.events, lines.size());

  Query query;
  query.stream = "live";
  const QueryStatus status = wait_done(service, service.submit(query));
  const DiagnoseOutcome cold = cold_answer(problem, lines.size());
  EXPECT_EQ(status.result.out, cold.out);
  EXPECT_EQ(status.result.err, cold.err);
  EXPECT_EQ(status.result.exit_code, cold.exit_code);
  EXPECT_NE(status.result.profile_json.find("\"warm_hit\":false"),
            std::string::npos);

  const SessionStats after = stream_stats();
  EXPECT_EQ(after.live_rebuilds, 1u);
  EXPECT_GT(after.resident_bytes, 0u)
      << "the stream just queried is not the session its budget pass cools";
  EXPECT_EQ(service.stats().warm_sessions, 0u) << "sdn2 cooled instead";
  EXPECT_EQ(registry.counter("dp.ingest.live_rebuilds").value(), 1u);
}

TEST(IngestService, ExplainProfileCarriesTheSnapshotPhase) {
  const Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  ASSERT_TRUE(service.open_stream("live", "sdn1").ok);
  ASSERT_TRUE(service.ingest("live", problem.log.to_text()).ok);

  Query query;
  query.stream = "live";
  const QueryStatus status = wait_done(service, service.submit(query));
  ASSERT_EQ(status.state, QueryState::kDone);
  ASSERT_FALSE(status.result.profile_json.empty());

  std::string error;
  const auto profile = obs::Json::parse(status.result.profile_json, error);
  ASSERT_TRUE(profile.has_value())
      << error << " in " << status.result.profile_json;
  EXPECT_TRUE(profile->get_bool("warm_hit"))
      << "a live stream never replays on the hot path";

  // The --explain invariant: phases (now including ingest_snapshot_us) plus
  // other_us reconcile *exactly* to total_us.
  const obs::Json* phases = profile->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->kind, obs::Json::Kind::kObject);
  EXPECT_NE(phases->find("ingest_snapshot_us"), nullptr);
  EXPECT_NE(phases->find("replay_us"), nullptr);
  double phase_sum = 0;
  for (const auto& [name, value] : phases->object) {
    ASSERT_EQ(value.kind, obs::Json::Kind::kNumber) << name;
    EXPECT_GE(value.number, 0) << name;
    phase_sum += value.number;
  }
  EXPECT_DOUBLE_EQ(phase_sum, profile->get_number("total_us"));

  EXPECT_EQ(phases->find("replay_us")->number, 0)
      << "stream queries take no cold replay";
}

TEST(IngestProtocol, NdjsonOpsRoundTrip) {
  const Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  bool shutdown = false;

  auto call = [&](const std::string& line) {
    const std::string reply = handle_request(service, line, shutdown);
    std::string error;
    auto json = obs::Json::parse(reply, error);
    EXPECT_TRUE(json.has_value()) << error << " in " << reply;
    return std::move(*json);
  };

  obs::Json opened = call(
      R"({"op":"ingest_open","stream":"live","scenario":"sdn1"})");
  EXPECT_TRUE(opened.get_bool("ok")) << opened.get_string("error");

  // An older client's "seal" field is ignored like any unknown field.
  const obs::Json fed = call(R"({"op":"ingest","stream":"live","events":)" +
                             obs::json_quote(problem.log.to_text()) +
                             R"(,"seal":true})");
  EXPECT_TRUE(fed.get_bool("ok")) << fed.get_string("error");
  EXPECT_EQ(fed.get_number("accepted"),
            static_cast<double>(problem.log.size()));
  const obs::Json* stream_stats = fed.find("stream");
  ASSERT_NE(stream_stats, nullptr);
  EXPECT_EQ(stream_stats->get_number("events"),
            static_cast<double>(problem.log.size()));

  EXPECT_FALSE(call(R"({"op":"ingest_open"})").get_bool("ok"));
  EXPECT_FALSE(call(R"({"op":"ingest","stream":"ghost","events":""})")
                   .get_bool("ok"));

  const obs::Json submitted = call(
      R"({"op":"submit","stream":"live"})");
  ASSERT_TRUE(submitted.get_bool("ok")) << submitted.get_string("error");
  const auto id = static_cast<std::uint64_t>(submitted.get_number("id"));
  const obs::Json done =
      call(R"({"op":"wait","id":)" + std::to_string(id) + "}");
  EXPECT_TRUE(done.get_bool("ok"));
  EXPECT_EQ(done.get_string("state"), "done");
  const CliAnswer expected = run_cli({"--scenario", "sdn1"});
  EXPECT_EQ(done.get_string("out"), expected.out);

  const obs::Json stats = call(R"({"op":"stats"})");
  const obs::Json* ingest_stats = stats.find("stats");
  ASSERT_NE(ingest_stats, nullptr);
  ingest_stats = ingest_stats->find("ingest");
  ASSERT_NE(ingest_stats, nullptr);
  EXPECT_EQ(ingest_stats->get_number("streams"), 1);
  EXPECT_NE(ingest_stats->find("per_stream")->find("live"), nullptr);
  EXPECT_FALSE(shutdown);
}

// ----------------------------------------------------- concurrency --
// The TSan target: an appender, several diagnosis clients, and a stats
// reader race on one live stream.

TEST(IngestServiceConcurrency, AppendersQueriesAndMaintenanceRace) {
  const Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  config.workers = 2;
  DiagnosisService service(config);
  ASSERT_TRUE(service.open_stream("live", "sdn1").ok);

  std::vector<std::string> lines;
  std::istringstream split(problem.log.to_text());
  for (std::string line; std::getline(split, line);) lines.push_back(line);

  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (std::size_t i = 0; i < lines.size(); i += 3) {
      std::string batch;
      for (std::size_t j = i; j < std::min(i + 3, lines.size()); ++j) {
        batch += lines[j] + "\n";
      }
      const IngestOutcome fed = service.ingest("live", batch);
      EXPECT_TRUE(fed.ok) << fed.error;
      std::this_thread::yield();
    }
    done.store(true);
  });

  // Locks each stream briefly and reads resident bytes cross-thread.
  std::thread stats_reader([&] {
    while (!done.load()) {
      (void)service.stats();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        Query query;
        query.stream = "live";
        query.bypass_cache = true;
        const SubmitOutcome submitted = service.submit(query);
        if (!submitted.ok()) continue;  // shed under load is fine
        const auto status = service.wait(submitted.id);
        ASSERT_TRUE(status.has_value());
        if (status->state == QueryState::kDone) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  appender.join();
  for (auto& client : clients) client.join();
  stats_reader.join();
  EXPECT_GT(completed.load(), 0);

  // Quiesced: the full stream now answers exactly like the one-shot CLI.
  Query query;
  query.stream = "live";
  query.bypass_cache = true;
  const QueryStatus final_status =
      wait_done(service, service.submit(query));
  const CliAnswer expected = run_cli({"--scenario", "sdn1"});
  EXPECT_EQ(final_status.result.out, expected.out);
  EXPECT_EQ(final_status.result.exit_code, expected.exit_code);
  EXPECT_EQ(service.stats().ingest_events, lines.size());
}

}  // namespace
}  // namespace dp::service
