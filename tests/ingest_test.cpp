// Tests for the streaming-ingest subsystem (src/ingest): byte-identity of
// live-stream diagnoses with the one-shot CLI's batch replay (the contract:
// a diagnosis against the always-current graph equals a cold replay of the
// same prefix, bit for bit), segment/checkpoint wire hardening in the
// serialization_test style (randomized round-trips, every truncation offset
// a clean torn tail), tier maintenance (compaction and epoch-bounded
// truncation never change answers), and the service-level wiring: stream
// queries, the ingest_snapshot_us explain phase, NDJSON ingest ops, and the
// TSan target where appenders, queries, and maintenance race on one stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ingest/manager.h"
#include "ingest/segment.h"
#include "ingest/stream.h"
#include "ndlog/parser.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "service/diagnose.h"
#include "service/problem.h"
#include "service/protocol.h"
#include "service/service.h"
#include "tools/cli.h"
#include "util/rng.h"

namespace dp::ingest {
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
service::Problem scenario(const std::string& name) {
  std::ostringstream err;
  auto problem = service::builtin_scenario(name, err);
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

service::DiagnoseSpec spec_for(const service::Problem& problem) {
  service::DiagnoseSpec spec;
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
service::DiagnoseOutcome cold_answer(const service::Problem& problem,
                                     std::size_t n) {
  service::Problem prefix{problem.program, problem.topology,
                          prefix_log(problem.log, n), problem.good_event,
                          problem.bad_event};
  return diagnose_problem(prefix, spec_for(problem), ReplayOptions{});
}

void expect_same_answer(const service::DiagnoseOutcome& live,
                        const service::DiagnoseOutcome& cold,
                        const std::string& what) {
  EXPECT_EQ(live.out, cold.out) << what;
  EXPECT_EQ(live.err, cold.err) << what;
  EXPECT_EQ(live.exit_code, cold.exit_code) << what;
}

/// Diagnoses against the stream's always-current run and checks the bytes
/// against a cold replay of the same prefix.
void check_cut(IngestStream& stream, const service::Problem& problem,
               std::size_t n, const std::string& what) {
  auto run = stream.ensure_current();
  service::Problem live_problem{stream.program(), stream.topology(),
                                stream.log(), stream.good_event(),
                                stream.bad_event()};
  const auto live =
      diagnose_problem(live_problem, spec_for(problem), ReplayOptions{}, run);
  expect_same_answer(live, cold_answer(problem, n), what);
}

// ------------------------------------------------------- byte identity --

TEST(IngestStream, ByteIdenticalToBatchReplayAtEveryCut) {
  for (const char* name : kAllScenarios) {
    const service::Problem problem = scenario(name);
    obs::MetricsRegistry registry;
    IngestOptions ingest;
    ingest.epoch_events = 5;  // several epoch boundaries per scenario
    IngestStream stream(name, problem.program, problem.topology,
                        problem.good_event, problem.bad_event, ReplayOptions{},
                        ingest, registry);

    // Cuts: the first epoch boundary, a mid-epoch point, and the full log.
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
    const IngestStreamStats stats = stream.stats();
    EXPECT_EQ(stats.events, total);
    EXPECT_EQ(stats.snapshots, cuts.size());
    EXPECT_EQ(stats.watermark, problem.log.records().back().time);
  }
}

TEST(IngestStream, SameTimeAppendRunsStraddlingEpochSealsStayIdentical) {
  // Live-tap appends that share a timestamp are left queued (feed_live only
  // advances the engine when it is behind) and drain through the engine's
  // batched execution path at the next snapshot. Make those runs straddle
  // epoch seals -- and a mid-run checkpoint capture -- and check every cut
  // is still byte-identical to a cold batch replay of the same prefix.
  service::Problem problem;
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
  IngestOptions ingest;
  ingest.epoch_events = 4;           // seals land mid same-time run
  ingest.checkpoint_every_epochs = 1;  // capture with a batch still queued
  IngestStream stream("straddle", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      ingest, registry);
  std::size_t fed = 0;
  for (const std::size_t cut : {std::size_t{7}, std::size_t{13}, log.size()}) {
    for (; fed < cut; ++fed) stream.append(log.records()[fed]);
    check_cut(stream, problem, cut, "straddle cut@" + std::to_string(cut));
  }
  EXPECT_GE(stream.stats().sealed_epochs, 4u);
  EXPECT_GE(stream.stats().checkpoints, 1u);
}

TEST(IngestStream, CompactionNeverChangesAnswers) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  IngestOptions ingest;
  ingest.epoch_events = 2;  // many small epochs -> segments to merge
  ingest.checkpoint_every_epochs = 2;
  ingest.compact_watermark = 2;
  ingest.retain_epochs = 1000;  // retention never truncates; isolate merging
  IngestStream stream("sdn1", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      ingest, registry);
  for (const LogRecord& record : problem.log.records()) stream.append(record);
  stream.seal();
  const std::uint32_t sealed = stream.stats().sealed_epochs;
  ASSERT_GT(sealed, 2u);

  stream.maintain(/*under_pressure=*/false);
  const IngestStreamStats stats = stream.stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.segments_compacted, 0u);
  EXPECT_EQ(stats.segments, ingest.compact_watermark);
  EXPECT_EQ(stats.sealed_epochs, sealed) << "merging drops no epochs";
  std::size_t sealed_records = 0;
  for (const auto& segment : stream.segments()) {
    sealed_records += segment->size();
  }
  EXPECT_EQ(sealed_records + stats.open_records, problem.log.size());
  check_cut(stream, problem, problem.log.size(), "after compaction");
}

TEST(IngestStream, PressureTruncationNeverChangesAnswers) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  IngestOptions ingest;
  ingest.epoch_events = 2;
  ingest.checkpoint_every_epochs = 2;
  ingest.compact_watermark = 0;  // no merging; isolate truncation
  ingest.retain_epochs = 1;
  IngestStream stream("sdn1", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      ingest, registry);
  for (const LogRecord& record : problem.log.records()) stream.append(record);
  stream.seal();

  // Memory pressure: every checkpoint-covered segment goes; answers hold
  // because the full in-memory prefix is retained.
  stream.maintain(/*under_pressure=*/true);
  const IngestStreamStats stats = stream.stats();
  EXPECT_GT(stats.truncated_segments, 0u);
  EXPECT_GT(stats.truncated_bytes, 0u);
  check_cut(stream, problem, problem.log.size(), "after pressure truncation");
  EXPECT_EQ(stream.log().size(), problem.log.size())
      << "truncation must only drop storage-tier segments";

  // The remaining segments still form an adjacent epoch chain (truncation
  // removes only a prefix), so bootstrap and compaction stay well-formed.
  for (std::size_t i = 1; i < stream.segments().size(); ++i) {
    EXPECT_EQ(stream.segments()[i - 1]->last_epoch() + 1,
              stream.segments()[i]->first_epoch());
  }
}

TEST(IngestStream, StaleAppendFallsBackToOneRebuild) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  IngestStream stream("sdn1", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      IngestOptions{}, registry);
  const auto& records = problem.log.records();
  const std::size_t half = records.size() / 2;
  for (std::size_t i = 0; i < half; ++i) stream.append(records[i]);

  bool rebuilt = true;
  stream.ensure_current(&rebuilt);
  EXPECT_FALSE(rebuilt) << "incremental feed needs no rebuild";

  // The snapshot quiesced the engine at the watermark; appending another
  // record at that same time lands at-or-before the horizon and must flag
  // the live engine stale instead of silently diverging.
  LogRecord stale = records[half];
  stale.time = stream.watermark();
  stream.append(stale);
  for (std::size_t i = half + 1; i < records.size(); ++i) {
    LogRecord record = records[i];
    record.time = std::max(record.time, stale.time);
    stream.append(record);
  }

  stream.ensure_current(&rebuilt);
  EXPECT_TRUE(rebuilt) << "post-quiescence append at the horizon rebuilds";
  EXPECT_EQ(stream.stats().live_rebuilds, 1u);

  // And the rebuilt answer still equals a cold replay of the same log.
  service::Problem live_problem{stream.program(), stream.topology(),
                                stream.log(), stream.good_event(),
                                stream.bad_event()};
  const auto live = diagnose_problem(live_problem, spec_for(problem),
                                     ReplayOptions{}, stream.ensure_current());
  const auto cold =
      diagnose_problem(live_problem, spec_for(problem), ReplayOptions{});
  expect_same_answer(live, cold, "after rebuild");
  EXPECT_EQ(stream.stats().live_rebuilds, 1u) << "rebuild repairs, once";
}

TEST(IngestStream, RejectsOutOfOrderAndHalfBatches) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  IngestStream stream("sdn1", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      IngestOptions{}, registry);
  const std::string text = problem.log.to_text();
  const std::size_t appended = stream.append_text(text);
  EXPECT_EQ(appended, problem.log.size());
  const LogicalTime watermark = stream.watermark();

  LogRecord behind = problem.log.records().front();
  behind.time = watermark - 1;
  EXPECT_THROW(stream.append(behind), std::exception);

  // A batch is all-or-nothing: a parse error (or an out-of-order record) in
  // line 2 must not apply line 1.
  const std::string head =
      "+ " + problem.log.records().back().tuple().to_string() + " @ " +
      std::to_string(watermark + 1) + "\n";
  const std::size_t before = stream.log().size();
  EXPECT_THROW(stream.append_text(head + "not an event line\n"),
               std::exception);
  EXPECT_THROW(stream.append_text(
                   head + "+ " +
                   problem.log.records().front().tuple().to_string() + " @ 0\n"),
               std::exception);
  EXPECT_EQ(stream.log().size(), before);
  EXPECT_EQ(stream.watermark(), watermark);
}

// -------------------------------------------- checkpoint + bootstrap --

std::vector<std::string> base_table_rows(const Engine& engine,
                                         const Program& program) {
  std::vector<std::string> rows;
  for (const auto& [name, decl] : program.tables()) {
    if (decl.kind != TupleKind::kBase || decl.is_event()) continue;
    for (const Tuple& tuple : engine.live_tuples(name)) {
      rows.push_back(name + ":" + tuple.to_string());
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(IngestStream, BootstrapFromCheckpointMatchesBatchBaseState) {
  const service::Problem problem = scenario("sdn2");
  obs::MetricsRegistry registry;
  IngestOptions ingest;
  ingest.epoch_events = 3;
  ingest.checkpoint_every_epochs = 2;
  IngestStream stream("sdn2", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      ingest, registry);
  for (const LogRecord& record : problem.log.records()) stream.append(record);
  stream.seal();
  ASSERT_GT(stream.stats().checkpoints, 0u);

  // A fresh consumer decodes the bootstrap tier and restores from it. The
  // contract is state reconstruction (the warm-session checkpoint tier's):
  // checkpoint + segment suffix must land on the same base state as
  // replaying the whole history.
  std::ostringstream out;
  stream.write_bootstrap(out);
  std::istringstream in(out.str());
  const StreamFile file = read_stream_file(in);
  ASSERT_TRUE(file.checkpoint.has_value());
  EventLog suffix;
  for (const LogSegment& segment : file.segments) {
    for (const LogRecord& record : segment.log().records()) {
      suffix.append(record);
    }
  }
  ASSERT_GT(suffix.records().back().time, file.checkpoint->captured_at());
  const std::unique_ptr<Engine> booted = restore_from_checkpoint(
      problem.program, problem.topology, *file.checkpoint, suffix);
  ReplayResult batch =
      replay(problem.program, problem.topology, problem.log, {}, {});
  EXPECT_EQ(base_table_rows(*booted, problem.program),
            base_table_rows(*batch.engine, problem.program));
}

TEST(IngestStream, WriteBootstrapRoundTripsThroughStreamFile) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  IngestOptions ingest;
  ingest.epoch_events = 4;
  ingest.checkpoint_every_epochs = 2;
  IngestStream stream("sdn1", problem.program, problem.topology,
                      problem.good_event, problem.bad_event, ReplayOptions{},
                      ingest, registry);
  for (const LogRecord& record : problem.log.records()) stream.append(record);
  stream.seal();

  std::ostringstream out;
  stream.write_bootstrap(out);
  const std::string bytes = out.str();

  std::istringstream in(bytes);
  const StreamFile file = read_stream_file(in);
  EXPECT_TRUE(file.tail_error.empty()) << file.tail_error;
  EXPECT_EQ(file.dropped_bytes, 0u);
  EXPECT_TRUE(file.checkpoint.has_value());
  ASSERT_EQ(file.segments.size(), stream.segments().size());
  std::size_t sealed_records = 0;
  for (std::size_t i = 0; i < file.segments.size(); ++i) {
    EXPECT_EQ(file.segments[i].log().records(),
              stream.segments()[i]->log().records());
    sealed_records += file.segments[i].size();
  }
  EXPECT_EQ(sealed_records + stream.stats().open_records, stream.log().size());

  // A torn tail (any truncation) must fall back to the sealed prefix, never
  // throw: the stream survives a crash mid-write.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::istringstream torn(bytes.substr(0, len));
    const StreamFile partial = read_stream_file(torn);
    EXPECT_LE(partial.segments.size(), file.segments.size());
    if (len < bytes.size()) {
      EXPECT_TRUE(len == 0 || !partial.tail_error.empty() ||
                  partial.segments.size() < file.segments.size() ||
                  !partial.checkpoint.has_value() ||
                  partial.segments.size() == file.segments.size());
    }
  }
}

// ------------------------------------------- segment wire hardening --

Tuple random_tuple(Rng& rng) {
  static const char* kTables[] = {"alpha", "beta", "gamma"};
  std::vector<Value> values;
  values.emplace_back("n" + std::to_string(rng.next_below(4)));  // location
  const std::size_t arity = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < arity; ++i) {
    switch (rng.next_below(3)) {
      case 0:
        values.emplace_back(static_cast<std::int64_t>(rng.next_u64() % 1000));
        break;
      case 1:
        values.emplace_back("s" + std::to_string(rng.next_below(100)));
        break;
      default:
        values.emplace_back(Ipv4(static_cast<std::uint32_t>(rng.next_u64())));
        break;
    }
  }
  return Tuple(kTables[rng.next_below(3)], std::move(values));
}

EventLog random_log(Rng& rng, std::size_t min_records = 1) {
  EventLog log;
  const std::size_t records = min_records + rng.next_below(20);
  LogicalTime t = static_cast<LogicalTime>(rng.next_below(10));
  for (std::size_t i = 0; i < records; ++i) {
    t += static_cast<LogicalTime>(rng.next_below(5));
    if (rng.next_below(4) == 0) {
      log.append_delete(random_tuple(rng), t);
    } else {
      log.append_insert(random_tuple(rng), t);
    }
  }
  return log;
}

TEST(LogSegment, RandomizedRoundTrip) {
  Rng rng(0xd1f5);
  for (int iter = 0; iter < 40; ++iter) {
    const auto first = static_cast<std::uint32_t>(rng.next_below(100));
    const auto span = static_cast<std::uint32_t>(rng.next_below(4));
    const LogSegment segment(first, first + span, random_log(rng));

    std::ostringstream out;
    segment.serialize(out);
    std::istringstream in(out.str());
    const LogSegment back = LogSegment::deserialize(in);

    EXPECT_EQ(back.first_epoch(), segment.first_epoch());
    EXPECT_EQ(back.last_epoch(), segment.last_epoch());
    EXPECT_EQ(back.first_time(), segment.first_time());
    EXPECT_EQ(back.last_time(), segment.last_time());
    EXPECT_EQ(back.log().records(), segment.log().records());
    EXPECT_EQ(back.byte_size(), segment.byte_size());
  }
}

TEST(LogSegment, MergeOfASplitLogSerializesByteEqualToTheUnsplitLog) {
  Rng rng(0xbeef);
  for (int iter = 0; iter < 25; ++iter) {
    const EventLog full = random_log(rng, /*min_records=*/2);
    const std::size_t split = 1 + rng.next_below(full.size() - 1);
    EventLog a_log = prefix_log(full, split);
    EventLog b_log;
    for (std::size_t i = split; i < full.size(); ++i) {
      b_log.append(full.records()[i]);
    }
    const LogSegment a(0, 0, std::move(a_log));
    const LogSegment b(1, 1, std::move(b_log));
    const LogSegment merged = LogSegment::merge(a, b);
    EXPECT_EQ(merged.epochs(), 2u);

    std::ostringstream merged_bytes, unsplit_bytes;
    merged.serialize(merged_bytes);
    LogSegment(0, 1, full).serialize(unsplit_bytes);
    EXPECT_EQ(merged_bytes.str(), unsplit_bytes.str());
  }

  // Non-adjacent epoch ranges must be rejected, not silently glued.
  Rng rng2(0x77);
  const LogSegment a(0, 0, random_log(rng2));
  const LogSegment gap(2, 2, random_log(rng2));
  EXPECT_THROW(LogSegment::merge(a, gap), std::invalid_argument);
}

TEST(LogSegment, EveryTruncationOffsetFailsWithAByteOffset) {
  Rng rng(0x5eed);
  const LogSegment segment(3, 4, random_log(rng, /*min_records=*/3));
  std::ostringstream out;
  segment.serialize(out);
  const std::string bytes = out.str();

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    try {
      LogSegment::deserialize(in);
      FAIL() << "truncation at " << len << " of " << bytes.size()
             << " must not decode";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("byte offset"), std::string::npos)
          << "offsetless error at len " << len << ": " << e.what();
    }
  }

  // A flipped payload byte trips the checksum (pick one well inside the
  // payload, past the fixed header).
  std::string corrupt = bytes;
  corrupt[bytes.size() - 12] ^= 0x40;
  std::istringstream in(corrupt);
  EXPECT_THROW(LogSegment::deserialize(in), std::runtime_error);
}

TEST(StreamFile, TornTailFallsBackToTheSealedPrefix) {
  Rng rng(0xfee1);
  const LogSegment first(0, 0, random_log(rng, 2));
  const LogSegment second(1, 1, random_log(rng, 2));
  std::ostringstream out;
  first.serialize(out);
  second.serialize(out);
  const std::string bytes = out.str();
  std::ostringstream first_only_out;
  first.serialize(first_only_out);
  const std::size_t first_len = first_only_out.str().size();

  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    const StreamFile file = read_stream_file(in);  // must never throw
    const std::size_t expect_sealed =
        (len >= bytes.size()) ? 2 : (len >= first_len ? 1 : 0);
    EXPECT_EQ(file.segments.size(), expect_sealed) << "at len " << len;
    if (expect_sealed < 2 && len > first_len) {
      EXPECT_FALSE(file.tail_error.empty()) << "at len " << len;
      EXPECT_GT(file.dropped_bytes, 0u) << "at len " << len;
    }
    if (expect_sealed == 2) {
      EXPECT_TRUE(file.tail_error.empty());
    }
  }
}

// ------------------------------------------------- service wiring --

service::QueryStatus wait_done(service::DiagnosisService& service,
                               const service::SubmitOutcome& s) {
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
  const service::Problem problem = scenario("sdn1");

  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.metrics = &registry;
  config.ingest.epoch_events = 6;
  service::DiagnosisService service(config);

  const service::IngestOutcome opened = service.open_stream("live", "sdn1");
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

  service::IngestOutcome fed = service.ingest("live", first_half);
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.accepted, half);

  service::Query query;
  query.stream = "live";
  const service::QueryStatus mid = wait_done(service, service.submit(query));
  ASSERT_EQ(mid.state, service::QueryState::kDone);
  const auto cold_mid = cold_answer(problem, half);
  EXPECT_EQ(mid.result.out, cold_mid.out);
  EXPECT_EQ(mid.result.err, cold_mid.err);
  EXPECT_EQ(mid.result.exit_code, cold_mid.exit_code);

  fed = service.ingest("live", second_half, /*seal=*/true);
  ASSERT_TRUE(fed.ok) << fed.error;
  EXPECT_EQ(fed.stream.events, lines.size());
  EXPECT_EQ(fed.stream.open_records, 0u) << "seal closes the open epoch";

  const service::QueryStatus full = wait_done(service, service.submit(query));
  EXPECT_EQ(full.result.out, expected.out);
  EXPECT_EQ(full.result.err, expected.err);
  EXPECT_EQ(full.result.exit_code, expected.exit_code);
  EXPECT_FALSE(full.cache_hit) << "the prefix grew; the old key is stale";

  // Same prefix again: the content-hash cache key serves it without a run.
  const service::QueryStatus again = wait_done(service, service.submit(query));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.result.out, expected.out);

  const service::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.ingest_streams, 1u);
  EXPECT_EQ(stats.ingest_events, lines.size());
  ASSERT_EQ(stats.per_stream.size(), 1u);
  EXPECT_EQ(stats.per_stream[0].first, "live");
  EXPECT_GT(stats.ingest_resident_bytes, 0u);
  EXPECT_NE(stats.to_text().find("ingest streams 1"), std::string::npos);
}

TEST(IngestService, ValidationAndIdempotentOpen) {
  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.metrics = &registry;
  service::DiagnosisService service(config);

  EXPECT_FALSE(service.open_stream("", "sdn1").ok);
  EXPECT_FALSE(service.open_stream("s", "").ok) << "needs scenario or program";
  EXPECT_FALSE(service.open_stream("s", "no-such-scenario").ok);

  const service::IngestOutcome first = service.open_stream("s", "sdn1");
  ASSERT_TRUE(first.ok) << first.error;
  const service::IngestOutcome again = service.open_stream("s", "sdn2");
  EXPECT_TRUE(again.ok) << "reopen is idempotent, program ignored";
  EXPECT_EQ(service.ingest_streams().size(), 1u);

  const service::IngestOutcome missing = service.ingest("ghost", "+ x(@a) @ 1");
  EXPECT_FALSE(missing.ok);
  EXPECT_NE(missing.error.find("unknown ingest stream"), std::string::npos);
  EXPECT_NE(missing.error.find("ingest_open"), std::string::npos);

  service::Query query;
  query.stream = "ghost";
  const service::SubmitOutcome submit = service.submit(query);
  EXPECT_FALSE(submit.ok());
  EXPECT_NE(submit.error.find("unknown ingest stream"), std::string::npos);

  service::Query both;
  both.stream = "s";
  both.scenario = "sdn1";
  EXPECT_FALSE(service.submit(both).ok())
      << "a query names a stream or a scenario, not both";

  const service::IngestOutcome bad = service.ingest("s", "garbage");
  EXPECT_FALSE(bad.ok);
  EXPECT_EQ(service.ingest_streams().find("s")->stats().events, 0u);
}

TEST(IngestService, ExplainProfileCarriesTheSnapshotPhase) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.metrics = &registry;
  service::DiagnosisService service(config);
  ASSERT_TRUE(service.open_stream("live", "sdn1").ok);
  ASSERT_TRUE(service.ingest("live", problem.log.to_text()).ok);

  service::Query query;
  query.stream = "live";
  const service::QueryStatus status = wait_done(service, service.submit(query));
  ASSERT_EQ(status.state, service::QueryState::kDone);
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
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.metrics = &registry;
  service::DiagnosisService service(config);
  bool shutdown = false;

  auto call = [&](const std::string& line) {
    const std::string reply = service::handle_request(service, line, shutdown);
    std::string error;
    auto json = obs::Json::parse(reply, error);
    EXPECT_TRUE(json.has_value()) << error << " in " << reply;
    return std::move(*json);
  };

  obs::Json opened = call(
      R"({"op":"ingest_open","stream":"live","scenario":"sdn1"})");
  EXPECT_TRUE(opened.get_bool("ok")) << opened.get_string("error");

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
  EXPECT_GT(stream_stats->get_number("sealed_epochs"), 0);

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
// The TSan target: an appender, several diagnosis clients, and a
// maintenance thread race on one live stream.

TEST(IngestServiceConcurrency, AppendersQueriesAndMaintenanceRace) {
  const service::Problem problem = scenario("sdn1");
  obs::MetricsRegistry registry;
  service::ServiceConfig config;
  config.metrics = &registry;
  config.workers = 2;
  config.ingest.epoch_events = 4;
  config.ingest.checkpoint_every_epochs = 2;
  config.ingest.compact_watermark = 2;
  config.ingest.retain_epochs = 1;
  service::DiagnosisService service(config);
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
      const service::IngestOutcome fed = service.ingest("live", batch);
      EXPECT_TRUE(fed.ok) << fed.error;
      std::this_thread::yield();
    }
    done.store(true);
  });

  std::thread maintainer([&] {
    while (!done.load()) {
      service.ingest_streams().maintain(/*under_pressure=*/false);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        service::Query query;
        query.stream = "live";
        query.bypass_cache = true;
        const service::SubmitOutcome submitted = service.submit(query);
        if (!submitted.ok()) continue;  // shed under load is fine
        const auto status = service.wait(submitted.id);
        ASSERT_TRUE(status.has_value());
        if (status->state == service::QueryState::kDone) {
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  appender.join();
  for (auto& client : clients) client.join();
  maintainer.join();
  EXPECT_GT(completed.load(), 0);

  // Quiesced: the full stream now answers exactly like the one-shot CLI.
  service::Query query;
  query.stream = "live";
  query.bypass_cache = true;
  const service::QueryStatus final_status =
      wait_done(service, service.submit(query));
  const CliAnswer expected = run_cli({"--scenario", "sdn1"});
  EXPECT_EQ(final_status.result.out, expected.out);
  EXPECT_EQ(final_status.result.exit_code, expected.exit_code);
  EXPECT_EQ(service.stats().ingest_events, lines.size());
}

}  // namespace
}  // namespace dp::ingest
