// Tests for the observability layer (src/obs): metrics semantics, span
// nesting under concurrency, dump well-formedness (parsed back with the
// checker CI uses), and the two cross-variant guarantees -- tracing on/off
// changes nothing observable, and both join evaluators report identical
// semantic counters through the registry facade.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "diffprov/diffprov.h"
#include "ndlog/parser.h"
#include "obs/json_check.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "obs/sketch.h"
#include "util/logging.h"
#include "provenance/vertex.h"
#include "replay/replay_engine.h"
#include "runtime/metrics_observer.h"
#include "sdn/scenario.h"

namespace dp {
namespace {

// ----------------------------------------------------------- metrics --

TEST(Metrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("dp.test.count");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  // Find-or-create returns the same instrument.
  EXPECT_EQ(&registry.counter("dp.test.count"), &c);

  obs::Gauge& g = registry.gauge("dp.test.depth");
  g.set(7);
  g.add(-2);
  EXPECT_EQ(g.value(), 5);
  g.set_max(3);  // below current: no change
  EXPECT_EQ(g.value(), 5);
  g.set_max(9);
  EXPECT_EQ(g.value(), 9);

  EXPECT_EQ(registry.size(), 2u);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(registry.size(), 2u);  // instruments survive a reset
}

/// The value of the first sample line starting with `series ` in a
/// Prometheus scrape (-1 when absent).
double prom_value(const std::string& text, const std::string& series) {
  const std::string key = "\n" + series + " ";
  const std::size_t at = ("\n" + text).find(key);
  if (at == std::string::npos) return -1;
  return std::stod(text.substr(at + key.size() - 1));
}

TEST(Metrics, HistogramBucketBoundariesAreInclusiveUpperBounds) {
  // A sketch exports a histogram family whose `le` buckets are inclusive
  // upper bounds: a value equal to a bound counts in that bucket.
  obs::MetricsRegistry registry;
  obs::QuantileSketch& sketch = registry.sketch("dp.test.lat_us");
  for (const double v : {0.5, 1.0, 1.5, 10.0, 100.0, 100.5}) sketch.observe(v);
  const std::string text = registry.to_prometheus();
  EXPECT_EQ(prom_value(text, "dp_test_lat_us_bucket{le=\"1\"}"), 2) << text;
  EXPECT_EQ(prom_value(text, "dp_test_lat_us_bucket{le=\"10\"}"), 4);
  EXPECT_EQ(prom_value(text, "dp_test_lat_us_bucket{le=\"100\"}"), 5);
  EXPECT_EQ(prom_value(text, "dp_test_lat_us_bucket{le=\"+Inf\"}"), 6);
  EXPECT_EQ(prom_value(text, "dp_test_lat_us_count"), 6);
  // The sum is exact, not rebuilt from bucket midpoints.
  EXPECT_DOUBLE_EQ(sketch.sum(), 0.5 + 1.0 + 1.5 + 10.0 + 100.0 + 100.5);
  EXPECT_EQ(prom_value(text, "dp_test_lat_us_sum"), 213.5);

  // Bounds up to 2 ms sit on sketch bucket edges and are exact; the larger
  // ones sit inside a bucket and count values up to 1.6% above them.
  const std::vector<double>& bounds = obs::latency_us_bounds();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    obs::QuantileSketch probe;
    probe.observe(bounds[i]);
    probe.observe(bounds[i] * 1.016);
    if (bounds[i] <= 2000) probe.observe(std::nextafter(bounds[i], 1e9));
    EXPECT_EQ(probe.snapshot().le_counts[i], 1u) << "le=" << bounds[i];
  }

  registry.reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.sum(), 0.0);
  EXPECT_EQ(prom_value(registry.to_prometheus(),
                       "dp_test_lat_us_bucket{le=\"+Inf\"}"),
            0);
}

TEST(Metrics, PrometheusDumpHasHistogramSeries) {
  obs::MetricsRegistry registry;
  registry.counter("dp.test.total").inc(3);
  registry.sketch("dp.test.lat_us").observe(5.0);
  const std::string text = registry.to_prometheus();
  // Dots become underscores; sketches expose cumulative le buckets.
  EXPECT_NE(text.find("dp_test_total 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dp_test_lat_us histogram\n"), std::string::npos);
  EXPECT_NE(text.find("dp_test_lat_us_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dp_test_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dp_test_lat_us_count 1"), std::string::npos);
}

TEST(Metrics, JsonDumpParsesBack) {
  obs::MetricsRegistry registry;
  registry.counter("dp.test.a").inc();
  registry.gauge("dp.test.b").set(-4);
  registry.sketch("dp.test.c").observe(1.0);
  const std::string json = registry.to_json();
  EXPECT_EQ(obs::json_error(json), std::nullopt) << json;
  const obs::MetricsCheck check = obs::check_metrics_json(json);
  ASSERT_TRUE(check.ok) << check.error;
  // The sketch appears in both the "histograms" and "sketches" sections.
  EXPECT_EQ(check.series, 4u);
  EXPECT_TRUE(check.names.count("dp.test.a"));
  EXPECT_TRUE(check.names.count("dp.test.b"));
  EXPECT_TRUE(check.names.count("dp.test.c"));
}

TEST(Metrics, SanitizeMetricSegment) {
  EXPECT_EQ(obs::sanitize_metric_segment("rule-1 (v2)"), "rule_1__v2_");
  EXPECT_EQ(obs::sanitize_metric_segment("ok_name.x"), "ok_name.x");
}

// ------------------------------------------------------------- spans --

TEST(Trace, SpanRecordsCompleteEvent) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span span(tracer, "dp.test.work", "test");
  }
  ASSERT_EQ(tracer.size(), 1u);
  const obs::TraceEvent event = tracer.events().front();
  EXPECT_EQ(event.name, "dp.test.work");
  EXPECT_STREQ(event.category, "test");
}

TEST(Trace, DisabledTracerRecordsNothingAndEndIsIdempotent) {
  obs::Tracer tracer;  // disabled by default
  obs::Span inert(tracer, "dp.test.skipped");
  EXPECT_FALSE(inert.active());
  inert.end();
  EXPECT_EQ(tracer.size(), 0u);

  tracer.set_enabled(true);
  obs::Span span(tracer, "dp.test.once");
  span.end();
  span.end();  // second end must not double-record
  EXPECT_EQ(tracer.size(), 1u);
}

TEST(Trace, ConcurrentSpansNestByTimeContainmentPerThread) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kIterations = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kIterations; ++i) {
        obs::Span outer(tracer, "outer");
        obs::Span inner(tracer, "inner");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), std::size_t{kThreads} * kIterations * 2);
  std::set<std::uint32_t> tids;
  std::size_t inner_count = 0;
  for (const obs::TraceEvent& event : events) {
    tids.insert(event.tid);
    if (event.name != "inner") continue;
    ++inner_count;
    // Stack discipline: some same-thread outer span must contain it.
    bool contained = false;
    for (const obs::TraceEvent& outer : events) {
      if (outer.tid != event.tid || outer.name != "outer") continue;
      if (outer.start_us <= event.start_us &&
          outer.start_us + outer.duration_us >=
              event.start_us + event.duration_us) {
        contained = true;
        break;
      }
    }
    EXPECT_TRUE(contained) << "inner span escaped every outer span";
  }
  EXPECT_EQ(tids.size(), std::size_t{kThreads});
  EXPECT_EQ(inner_count, std::size_t{kThreads} * kIterations);
}

TEST(Trace, ChromeJsonParsesBackWithEscapedNames) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::Span a(tracer, "plain");
    obs::Span b(tracer, "we\"ird\\name");
    obs::Span c(tracer, "ctrl\nchar");  // control chars may be replaced,
                                        // but must never break the JSON
  }
  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(obs::json_error(json), std::nullopt) << json;
  const obs::TraceCheck check = obs::check_chrome_trace(json);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_EQ(check.events, 3u);
  EXPECT_TRUE(check.names.count("plain"));
  EXPECT_TRUE(check.names.count("we\"ird\\name"));
}

TEST(Trace, JsonCheckerRejectsMalformedInput) {
  EXPECT_TRUE(obs::json_error("{\"truncated\": ").has_value());
  EXPECT_TRUE(obs::json_error("{\"trailing\": 1,}").has_value());
  EXPECT_FALSE(obs::check_chrome_trace("{\"noTraceEvents\": []}").ok);
  EXPECT_FALSE(obs::check_metrics_json("[1, 2]").ok);
}

// ----------------------------------------------- trace propagation --

TEST(Trace, TraceIdParsingAcceptsOnlyNonzeroHex) {
  std::uint64_t id = 0;
  ASSERT_TRUE(obs::parse_trace_id("deadbeef", id));
  EXPECT_EQ(id, 0xdeadbeefull);
  ASSERT_TRUE(obs::parse_trace_id("1", id));
  EXPECT_EQ(id, 1u);
  ASSERT_TRUE(obs::parse_trace_id("ffffffffffffffff", id));
  EXPECT_EQ(id, ~0ull);
  ASSERT_TRUE(obs::parse_trace_id("DeadBeef", id));  // case-insensitive
  EXPECT_EQ(id, 0xdeadbeefull);

  id = 42;
  EXPECT_FALSE(obs::parse_trace_id("", id));
  EXPECT_FALSE(obs::parse_trace_id("0", id));  // zero means "no context"
  EXPECT_FALSE(obs::parse_trace_id("00000", id));
  EXPECT_FALSE(obs::parse_trace_id("12g4", id));
  EXPECT_FALSE(obs::parse_trace_id("1ffffffffffffffff", id));  // 17 digits
  EXPECT_EQ(id, 42u) << "failed parses must leave the output untouched";

  // format is the inverse of parse.
  EXPECT_EQ(obs::format_trace_id(0xdeadbeefull), "deadbeef");
  std::uint64_t back = 0;
  ASSERT_TRUE(obs::parse_trace_id(obs::format_trace_id(0xabc123ull), back));
  EXPECT_EQ(back, 0xabc123ull);
}

TEST(Trace, SpansInheritTheInstalledContextAndChainParentIds) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  constexpr std::uint64_t kTraceId = 0x5eed;
  {
    // The thread-hop idiom: the worker installs the client's context, then
    // every span below inherits the trace id and chains parentage.
    obs::ScopedTraceContext scope({kTraceId, 0});
    obs::Span outer(tracer, "outer");
    obs::Span inner(tracer, "inner");
  }
  const std::vector<obs::TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  // Spans close innermost-first.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  ASSERT_EQ(inner.name, "inner");
  ASSERT_EQ(outer.name, "outer");
  EXPECT_EQ(inner.trace_id, kTraceId);
  EXPECT_EQ(outer.trace_id, kTraceId);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_EQ(outer.parent_span_id, 0u) << "the installed context had no span";

  // The scope restored the previous (empty) context: a span after it has
  // no trace id.
  {
    obs::Span after(tracer, "after");
  }
  EXPECT_EQ(tracer.events().back().trace_id, 0u);
}

TEST(Trace, ChromeJsonCarriesTraceContextArgs) {
  obs::Tracer tracer;
  tracer.set_enabled(true);
  {
    obs::ScopedTraceContext scope({0xdeadbeef, 0});
    obs::Span span(tracer, "work");
  }
  const std::string json = tracer.to_chrome_json();
  EXPECT_EQ(obs::json_error(json), std::nullopt) << json;
  EXPECT_NE(json.find("\"trace_id\": \"deadbeef\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"span_id\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_span_id\""), std::string::npos);
}

// ------------------------------------------------ recorder: the ring --

TEST(FlightRec, RecordsSpansAndLogsWithTruncation) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.set_enabled(false);
  recorder.record_span("dropped", 0, 0);
  EXPECT_TRUE(recorder.snapshot().empty()) << "disabled recorder must drop";

  recorder.set_enabled(true);
  recorder.record_span("short", 0xabc, 7);
  recorder.record_log(2, "a warning line");
  const std::string long_name(100, 'x');
  recorder.record_span(long_name, 0, 1);
  recorder.set_enabled(false);

  const std::vector<obs::Recorder::Event> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 3u);
  bool saw_span = false, saw_log = false, saw_truncated = false;
  for (const obs::Recorder::Event& event : events) {
    if (std::string(event.name) == "short") {
      saw_span = true;
      EXPECT_EQ(event.kind, obs::Recorder::Event::Kind::kSpan);
      EXPECT_EQ(event.trace_id, 0xabcu);
      EXPECT_EQ(event.duration_us, 7u);
    } else if (std::string(event.name) == "a warning line") {
      saw_log = true;
      EXPECT_EQ(event.kind, obs::Recorder::Event::Kind::kLog);
      EXPECT_EQ(event.level, 2u);
    } else {
      saw_truncated = true;
      EXPECT_EQ(std::string(event.name).size(), obs::Recorder::kNameCap);
      EXPECT_EQ(std::string(event.name),
                long_name.substr(0, obs::Recorder::kNameCap));
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_log);
  EXPECT_TRUE(saw_truncated);

  recorder.clear();
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRec, RingKeepsOnlyTheLastNEventsPerThread) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  const std::size_t total = obs::Recorder::kRingSize + 50;
  for (std::size_t i = 0; i < total; ++i) {
    recorder.record_span("evt" + std::to_string(i), 0, i);
  }
  recorder.set_enabled(false);
  const std::vector<obs::Recorder::Event> events = recorder.snapshot();
  EXPECT_EQ(events.size(), obs::Recorder::kRingSize);
  // The survivors are the *latest* kRingSize events.
  std::set<std::string> names;
  for (const obs::Recorder::Event& event : events) names.insert(event.name);
  EXPECT_TRUE(names.count("evt" + std::to_string(total - 1)));
  EXPECT_FALSE(names.count("evt0"));
  recorder.clear();
}

TEST(FlightRec, JsonDumpParsesBackAndLogHookCaptures) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  obs::Recorder::install_log_hook();
  const LogLevel saved = log_level();
  set_log_level(LogLevel::kWarn);
  DP_WARN << "hooked " << 123;
  set_log_level(saved);
  set_log_sink(nullptr);
  recorder.record_span("we\"ird\\span", 0x99, 5);
  recorder.set_enabled(false);

  const std::string json = recorder.to_json();
  EXPECT_EQ(obs::json_error(json), std::nullopt) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must stay single-line";
  EXPECT_NE(json.find("\"ring_size\""), std::string::npos);

  bool saw_hooked = false;
  for (const obs::Recorder::Event& event : recorder.snapshot()) {
    if (std::string(event.name) == "hooked 123") {
      saw_hooked = true;
      EXPECT_EQ(event.kind, obs::Recorder::Event::Kind::kLog);
    }
  }
  EXPECT_TRUE(saw_hooked) << "DP_WARN line must reach the recorder via the "
                             "log sink";
  recorder.clear();
}

TEST(FlightRec, ConcurrentWritersAndSnapshottersAreSafe) {
  // The TSan target: writer threads hammer the ring while a reader thread
  // snapshots and serializes continuously. Every event a snapshot returns
  // must be internally consistent (never a half-written slot).
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.set_enabled(true);

  constexpr int kWriters = 4;
  constexpr int kEventsPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistent{0};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const obs::Recorder::Event& event : recorder.snapshot()) {
        const std::string name(event.name);
        // Writer i records "w<i>" spans with trace_id 100+i and logs
        // "log<i>"; anything else is a torn slot.
        if (event.kind == obs::Recorder::Event::Kind::kSpan) {
          if (name.size() != 2 || name[0] != 'w' ||
              event.trace_id != 100u + (name[1] - '0')) {
            ++inconsistent;
          }
        } else if (name.size() != 4 || name.compare(0, 3, "log") != 0) {
          ++inconsistent;
        }
      }
      (void)recorder.to_json();
    }
  });
  std::vector<std::thread> writers;
  std::atomic<int> writers_done{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, &writers_done, w] {
      const std::string span_name = "w" + std::to_string(w);
      const std::string log_name = "log" + std::to_string(w);
      for (int i = 0; i < kEventsPerWriter; ++i) {
        recorder.record_span(span_name, 100 + w, i);
        if (i % 8 == 0) recorder.record_log(1, log_name);
      }
      // Stay alive (record lease held) until every writer has recorded, so
      // the four threads provably used four distinct records -- otherwise a
      // fast writer's returned record gets reused and overwritten.
      ++writers_done;
      while (writers_done.load() < kWriters) std::this_thread::yield();
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  reader.join();
  recorder.set_enabled(false);

  EXPECT_EQ(inconsistent.load(), 0);
  // Records were leased per writer thread: the final snapshot holds the last
  // kRingSize events of each, still visible after the threads exited.
  EXPECT_EQ(recorder.snapshot().size(), kWriters * obs::Recorder::kRingSize);
  recorder.clear();
}

// ------------------------------------------- prometheus text checker --

TEST(Metrics, PrometheusCheckerAcceptsRegistryOutput) {
  obs::MetricsRegistry registry;
  registry.counter("dp.test.total").inc(3);
  registry.gauge("dp.test.depth").set(-2);
  registry.sketch("dp.test.lat_us").observe(5.0);
  registry.sketch("dp.test.lat_us").observe(2e7);

  const obs::PrometheusCheck check =
      obs::check_prometheus_text(registry.to_prometheus());
  ASSERT_TRUE(check.ok) << check.error;
  // The histogram family counts as one series; the sketch's five quantile
  // gauges and _sketch_count as six more.
  EXPECT_EQ(check.series, 9u);
  EXPECT_TRUE(check.names.count("dp_test_total"));
  EXPECT_TRUE(check.names.count("dp_test_depth"));
  EXPECT_TRUE(check.names.count("dp_test_lat_us"));
}

TEST(Metrics, PrometheusCheckerRejectsBrokenHistograms) {
  // le bounds out of order.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"10\"} 1\nh_bucket{le=\"1\"} 1\n"
                   "h_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n")
                   .ok);
  // Cumulative counts must be non-decreasing.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"1\"} 5\nh_bucket{le=\"10\"} 3\n"
                   "h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n")
                   .ok);
  // +Inf bucket must equal _count.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\n"
                   "h_sum 2\nh_count 3\n")
                   .ok);
  // Missing +Inf bucket.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE h histogram\n"
                   "h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n")
                   .ok);
  // Latency sums may not go negative.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE h_us histogram\n"
                   "h_us_bucket{le=\"1\"} 1\nh_us_bucket{le=\"+Inf\"} 1\n"
                   "h_us_sum -4\nh_us_count 1\n")
                   .ok);
  // Counters may not go negative, and TYPE lines may not repeat.
  EXPECT_FALSE(obs::check_prometheus_text("# TYPE c counter\nc -1\n").ok);
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE c counter\n# TYPE c counter\nc 1\n")
                   .ok);

  // The well-formed version of the same text passes.
  const obs::PrometheusCheck good = obs::check_prometheus_text(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"10\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\nh_sum 40\nh_count 5\n"
      "# TYPE c counter\nc 7\n");
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.series, 2u);
}

// ----------------------------------------------- cross-variant tests --

// One full SDN1 diagnosis; returns every observable artifact as one string.
std::string diagnose_sdn1_fingerprint() {
  sdn::Scenario s = sdn::sdn1();
  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun run = provider.replay_bad({});
  const auto good_tree = locate_tree(*run.graph, s.good_event);
  const auto bad_tree = locate_tree(*run.graph, s.bad_event);
  if (!good_tree || !bad_tree) return "tree missing";
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good_tree, s.bad_event);
  return good_tree->to_text() + "\n---\n" + bad_tree->to_text() + "\n---\n" +
         result.to_string();
}

TEST(Obs, TracingOnOffIsByteIdenticalForProvenanceAndDiagnosis) {
  obs::default_tracer().set_enabled(false);
  const std::string off = diagnose_sdn1_fingerprint();

  obs::default_tracer().set_enabled(true);
  const std::string on = diagnose_sdn1_fingerprint();
  obs::default_tracer().set_enabled(false);
  obs::default_tracer().clear();

  EXPECT_EQ(off, on);
  EXPECT_NE(off.find("DiffProv: success"), std::string::npos) << off;
}

TEST(Obs, PlannedAndFullScanEvaluatorsAgreeThroughRegistryFacade) {
  sdn::Scenario s = sdn::sdn1();
  ReplayOptions planned;
  planned.engine_config.use_join_plans = true;
  ReplayOptions fullscan;
  fullscan.engine_config.use_join_plans = false;
  ReplayResult a = replay(s.program, s.topology, s.log, {}, planned);
  ReplayResult b = replay(s.program, s.topology, s.log, {}, fullscan);

  obs::MetricsRegistry& ra = a.engine->metrics();
  obs::MetricsRegistry& rb = b.engine->metrics();
  // Semantic counters must agree exactly (join-mechanics counters --
  // index_probes, tuples_scanned -- differ by design).
  std::vector<std::string> names = {
      "dp.runtime.base_inserts",     "dp.runtime.base_deletes",
      "dp.runtime.derivations",      "dp.runtime.underivations",
      "dp.runtime.remote_messages",  "dp.runtime.events_processed",
  };
  for (const Rule& rule : s.program.rules()) {
    names.push_back("dp.runtime.rule_firings." +
                    obs::sanitize_metric_segment(rule.name));
  }
  for (const std::string& name : names) {
    EXPECT_EQ(ra.counter(name).value(), rb.counter(name).value()) << name;
  }
  EXPECT_GT(ra.counter("dp.runtime.derivations").value(), 0u);

  // The Stats struct is a facade over the same numbers.
  EXPECT_EQ(a.engine->stats().derivations,
            ra.counter("dp.runtime.derivations").value());
  EXPECT_EQ(a.engine->stats().events_processed,
            ra.counter("dp.runtime.events_processed").value());
}

TEST(Obs, ProvenanceVertexCountsPublishPerKind) {
  // replay() publishes graph growth into the default registry (the registry
  // is shared process-wide, so we measure deltas around the call).
  obs::MetricsRegistry& registry = obs::default_registry();
  const std::uint64_t vertices_before =
      registry.counter("dp.prov.vertices").value();
  const std::uint64_t derives_before =
      registry.counter("dp.prov.vertex.derive").value();

  sdn::Scenario s = sdn::sdn1();
  ReplayResult run = replay(s.program, s.topology, s.log, {}, {});
  ProvenanceGraph& graph = run.recorder->graph();

  const auto& by_kind = graph.counters().by_kind;
  std::uint64_t total = 0;
  for (std::uint64_t n : by_kind) total += n;
  EXPECT_EQ(total, graph.size());
  EXPECT_GT(by_kind[static_cast<std::size_t>(VertexKind::kDerive)], 0u);

  EXPECT_EQ(registry.counter("dp.prov.vertices").value() - vertices_before,
            total);
  EXPECT_EQ(registry.counter("dp.prov.vertex.derive").value() - derives_before,
            by_kind[static_cast<std::size_t>(VertexKind::kDerive)]);
  // Delta-publish: republishing an unchanged graph adds nothing.
  graph.publish_metrics(registry);
  EXPECT_EQ(registry.counter("dp.prov.vertices").value() - vertices_before,
            total);
}

TEST(Obs, MetricsObserverCountsPerTableActivity) {
  Program program = parse_program(R"(
    table base(2) base mutable keys(0).
    table out(2) derived.
    rule r out(@N, V) :- base(@N, V).
  )");
  Engine engine(program, {});
  obs::MetricsRegistry registry;
  MetricsObserver observer(registry);
  engine.add_observer(&observer);

  engine.schedule_insert(Tuple("base", {"n1", 1}), 0);
  engine.run();
  EXPECT_EQ(registry.counter("dp.runtime.table.base.inserts").value(), 1u);
  EXPECT_EQ(registry.counter("dp.runtime.table.out.derives").value(), 1u);

  // A key upsert displaces the old row: one delete, one underive.
  engine.schedule_insert(Tuple("base", {"n1", 2}), 1);
  engine.run();
  EXPECT_EQ(registry.counter("dp.runtime.table.base.inserts").value(), 2u);
  EXPECT_EQ(registry.counter("dp.runtime.table.base.deletes").value(), 1u);
  EXPECT_EQ(registry.counter("dp.runtime.table.out.underives").value(), 1u);
}

TEST(Obs, EngineRecordsRuleSpansWhenTracingIsEnabled) {
  obs::default_tracer().clear();
  obs::default_tracer().set_enabled(true);
  sdn::Scenario s = sdn::sdn1();
  ReplayResult run = replay(s.program, s.topology, s.log, {}, {});
  obs::default_tracer().set_enabled(false);

  std::size_t rule_spans = 0;
  bool saw_run_span = false;
  for (const obs::TraceEvent& event : obs::default_tracer().events()) {
    if (event.name.rfind("rule:", 0) == 0) ++rule_spans;
    if (event.name == "dp.runtime.run") saw_run_span = true;
  }
  obs::default_tracer().clear();
  EXPECT_GT(rule_spans, 0u);
  EXPECT_TRUE(saw_run_span);
  // Latency samples ride along with the spans.
  EXPECT_GT(run.engine->metrics().sketch("dp.runtime.rule_fire_us").count(),
            0u);
}

// ---------------------------------------------------- quantile sketches --

TEST(Sketch, RandomizedRelativeErrorVersusExactQuantiles) {
  // Log-uniform values over nine decades: every octave of the bucket table
  // gets exercised, and the geometric-midpoint representative must stay
  // within the advertised relative error of the exact order statistic.
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> exponent(-3.0, 6.0);
  obs::QuantileSketch sketch;
  std::vector<double> values;
  constexpr std::size_t kN = 20000;
  values.reserve(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double v = std::pow(10.0, exponent(rng));
    values.push_back(v);
    sketch.observe(v);
  }
  std::sort(values.begin(), values.end());

  EXPECT_EQ(sketch.count(), kN);
  EXPECT_DOUBLE_EQ(sketch.min(), values.front());
  EXPECT_DOUBLE_EQ(sketch.max(), values.back());
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(kN)));
    const double exact = values[std::max<std::size_t>(rank, 1) - 1];
    const double estimate = sketch.quantile(q);
    EXPECT_LE(std::abs(estimate - exact) / exact,
              obs::QuantileSketch::kMaxRelativeError)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
  // Estimates never escape the observed range, whatever the bucket mid says.
  EXPECT_GE(sketch.quantile(0.0), values.front());
  EXPECT_LE(sketch.quantile(1.0), values.back());

  sketch.reset();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.quantile(0.5), 0.0);
}

TEST(Sketch, EightThreadConcurrentObserveLosesNothing) {
  obs::QuantileSketch sketch;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sketch, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sketch.observe(static_cast<double>((t * kPerThread + i) % 1000 + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(sketch.count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(sketch.min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 1000.0);
  // The per-thread value streams are uniform over [1, 1000]; the pooled
  // median must land near 500 regardless of interleaving.
  EXPECT_NEAR(sketch.quantile(0.5), 500.0, 500.0 * 0.02);
}

TEST(Sketch, RegistryExportsPassBothCheckers) {
  obs::MetricsRegistry registry;
  obs::QuantileSketch& sketch = registry.sketch("dp.test.lat_us");
  for (const double v : {3.0, 70.0, 900.0, 12000.0}) sketch.observe(v);

  const obs::PrometheusCheck prom =
      obs::check_prometheus_text(registry.to_prometheus());
  ASSERT_TRUE(prom.ok) << prom.error;
  EXPECT_TRUE(prom.names.count("dp_test_lat_us"));  // the histogram family
  EXPECT_TRUE(prom.names.count("dp_test_lat_us_p50"));
  EXPECT_TRUE(prom.names.count("dp_test_lat_us_p999"));
  EXPECT_TRUE(prom.names.count("dp_test_lat_us_sketch_count"));

  const obs::MetricsCheck json = obs::check_metrics_json(registry.to_json());
  ASSERT_TRUE(json.ok) << json.error;

  // One --stats row per series, carrying both the sum and the quantiles.
  const std::string text = registry.to_text();
  EXPECT_NE(text.find("count=4 sum=12973.0"), std::string::npos) << text;
  EXPECT_NE(text.find("p99="), std::string::npos) << text;
  EXPECT_EQ(text.find("dp.test.lat_us"), text.rfind("dp.test.lat_us")) << text;
}

TEST(Sketch, ScrapesRacingObserversAgreeOnTheCount) {
  // The TSan target for the export path: four threads observe while this
  // thread scrapes. Every scrape renders a sketch from one snapshot, so its
  // +Inf bucket, _count and _sketch_count are exactly one number.
  obs::MetricsRegistry registry;
  obs::QuantileSketch& sketch = registry.sketch("dp.test.race_us");
  std::atomic<bool> stop{false};
  std::vector<std::thread> observers;
  for (int t = 0; t < 4; ++t) {
    observers.emplace_back([&sketch, &stop, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        sketch.observe(static_cast<double>((t * 997 + i) % 5000) + 0.5);
      }
    });
  }
  for (int scrape = 0; scrape < 200; ++scrape) {
    const std::string text = registry.to_prometheus();
    const obs::PrometheusCheck check = obs::check_prometheus_text(text);
    ASSERT_TRUE(check.ok) << check.error;
    const double inf = prom_value(text, "dp_test_race_us_bucket{le=\"+Inf\"}");
    EXPECT_EQ(inf, prom_value(text, "dp_test_race_us_count"));
    EXPECT_EQ(inf, prom_value(text, "dp_test_race_us_sketch_count"));
  }
  stop.store(true);
  for (std::thread& t : observers) t.join();
  EXPECT_GT(sketch.count(), 0u);
}

TEST(Sketch, PrometheusCheckerValidatesQuantileSeries) {
  const char* good =
      "# TYPE s_p50 gauge\ns_p50 1\n"
      "# TYPE s_p95 gauge\ns_p95 2\n"
      "# TYPE s_p99 gauge\ns_p99 3\n"
      "# TYPE s_p999 gauge\ns_p999 4\n"
      "# TYPE s_max gauge\ns_max 5\n"
      "# TYPE s_sketch_count counter\ns_sketch_count 10\n";
  EXPECT_TRUE(obs::check_prometheus_text(good).ok)
      << obs::check_prometheus_text(good).error;

  // Non-monotone quantiles (p99 < p95).
  const obs::PrometheusCheck nonmono = obs::check_prometheus_text(
      "# TYPE s_p50 gauge\ns_p50 1\n"
      "# TYPE s_p95 gauge\ns_p95 3\n"
      "# TYPE s_p99 gauge\ns_p99 2\n"
      "# TYPE s_p999 gauge\ns_p999 4\n"
      "# TYPE s_max gauge\ns_max 5\n"
      "# TYPE s_sketch_count counter\ns_sketch_count 10\n");
  EXPECT_FALSE(nonmono.ok);
  EXPECT_NE(nonmono.error.find("monotone"), std::string::npos)
      << nonmono.error;

  // The tail estimate may not exceed the observed max.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE s_p50 gauge\ns_p50 1\n"
                   "# TYPE s_p95 gauge\ns_p95 2\n"
                   "# TYPE s_p99 gauge\ns_p99 3\n"
                   "# TYPE s_p999 gauge\ns_p999 9\n"
                   "# TYPE s_max gauge\ns_max 5\n"
                   "# TYPE s_sketch_count counter\ns_sketch_count 10\n")
                   .ok);

  // A _p999 series without its lower quantiles is a broken export.
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE s_p50 gauge\ns_p50 1\n"
                   "# TYPE s_p99 gauge\ns_p99 3\n"
                   "# TYPE s_p999 gauge\ns_p999 4\n"
                   "# TYPE s_max gauge\ns_max 5\n"
                   "# TYPE s_sketch_count counter\ns_sketch_count 10\n")
                   .ok);

  // Sketch and histogram family disagreeing on the sample count is flagged:
  // both render from one snapshot, so any difference is a broken export.
  const obs::PrometheusCheck diverged = obs::check_prometheus_text(
      "# TYPE s histogram\n"
      "s_bucket{le=\"+Inf\"} 100\ns_sum 500\ns_count 100\n"
      "# TYPE s_p50 gauge\ns_p50 1\n"
      "# TYPE s_p95 gauge\ns_p95 2\n"
      "# TYPE s_p99 gauge\ns_p99 3\n"
      "# TYPE s_p999 gauge\ns_p999 4\n"
      "# TYPE s_max gauge\ns_max 5\n"
      "# TYPE s_sketch_count counter\ns_sketch_count 10\n");
  EXPECT_FALSE(diverged.ok);
  EXPECT_NE(diverged.error.find("diverges"), std::string::npos)
      << diverged.error;
  EXPECT_FALSE(obs::check_prometheus_text(
                   "# TYPE s histogram\n"
                   "s_bucket{le=\"+Inf\"} 11\ns_sum 50\ns_count 11\n"
                   "# TYPE s_p50 gauge\ns_p50 1\n"
                   "# TYPE s_p95 gauge\ns_p95 2\n"
                   "# TYPE s_p99 gauge\ns_p99 3\n"
                   "# TYPE s_p999 gauge\ns_p999 4\n"
                   "# TYPE s_max gauge\ns_max 5\n"
                   "# TYPE s_sketch_count counter\ns_sketch_count 10\n")
                   .ok)
      << "an off-by-one count must not pass";
}

TEST(Sketch, JsonCheckerValidatesSketchSection) {
  // Handcrafted sketches section with inverted quantiles must be rejected.
  const char* bad =
      "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"sketches\":"
      "{\"dp.x\":{\"count\":4,\"min\":1,\"max\":9,"
      "\"p50\":5,\"p95\":3,\"p99\":6,\"p999\":7}}}";
  const obs::MetricsCheck check = obs::check_metrics_json(bad);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("monotone"), std::string::npos) << check.error;
}

// ------------------------------- recorder: the scope stack and sampler --

TEST(Profiler, ScopeStackFoldsIntoWeightedCollapsedStacks) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.stop_sampler();
  recorder.clear();
  recorder.set_enabled(true);
  {
    obs::Span alpha(obs::default_tracer(), "alpha");
    {
      obs::Span beta(obs::default_tracer(), "beta");
      recorder.sample_once();
    }
    recorder.sample_once();
  }
  recorder.set_enabled(false);

  const std::string collapsed = recorder.collapsed();
  EXPECT_NE(collapsed.find("alpha;beta 1\n"), std::string::npos) << collapsed;
  EXPECT_NE(collapsed.find("alpha 1\n"), std::string::npos) << collapsed;
  EXPECT_GE(recorder.samples(), 2u);
  recorder.clear();
}

TEST(Profiler, SpansMirrorOntoTheScopeStackWhileEnabled) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.stop_sampler();
  recorder.clear();
  recorder.set_enabled(true);
  {
    DP_SPAN_CAT("dp.test.outer", "test");
    {
      DP_SPAN_CAT("dp.test.inner", "test");
      recorder.sample_once();
    }
  }
  recorder.set_enabled(false);
  const std::string collapsed = recorder.collapsed();
  EXPECT_NE(collapsed.find("dp.test.outer;dp.test.inner 1\n"),
            std::string::npos)
      << collapsed;
  recorder.clear();

  // Disabled: spans leave no trace on the scope stack.
  {
    DP_SPAN_CAT("dp.test.ghost", "test");
    recorder.sample_once();
  }
  EXPECT_EQ(recorder.collapsed().find("dp.test.ghost"), std::string::npos);
  recorder.clear();
}

TEST(Profiler, SamplerTicksAcrossConcurrentSpanThreads) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.start_sampler(std::chrono::milliseconds(1));

  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        DP_SPAN_CAT("dp.test.worker", "test");
        DP_SPAN_CAT("dp.test.leaf", "test");
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop.store(true, std::memory_order_relaxed);
  for (auto& worker : workers) worker.join();
  recorder.stop_sampler();
  recorder.set_enabled(false);

  EXPECT_GT(recorder.samples(), 0u);
  EXPECT_NE(recorder.collapsed().find("dp.test.worker"), std::string::npos);
  recorder.clear();
}

/// Opens `depth` nested spans and samples the stack at the bottom.
void sample_at_depth(int depth) {
  if (depth == 0) {
    obs::Recorder::instance().sample_once();
    return;
  }
  DP_SPAN_CAT("deep", "test");
  sample_at_depth(depth - 1);
}

TEST(Profiler, DeepNestingBeyondTheFrameCapStaysBalanced) {
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.stop_sampler();
  recorder.clear();
  recorder.set_enabled(true);
  // Nest well past kMaxDepth; overflow frames are counted but not named,
  // and the matching closes must land the stack back at exactly zero.
  constexpr int kDepth = static_cast<int>(obs::Recorder::kMaxDepth) + 8;
  sample_at_depth(kDepth);
  recorder.sample_once();  // depth back to zero: nothing new folds in
  recorder.set_enabled(false);
  EXPECT_EQ(recorder.samples(), 1u) << recorder.collapsed();
  std::string capped = "deep";
  for (std::size_t d = 1; d < obs::Recorder::kMaxDepth; ++d) capped += ";deep";
  EXPECT_EQ(recorder.collapsed(), capped + " 1\n");
  // Every span, overflow frames included, still reached the ring.
  EXPECT_EQ(recorder.snapshot().size(), static_cast<std::size_t>(kDepth));
  recorder.clear();
}

TEST(Recorder, ExitedThreadsRecordIsReusedWithAnEmptyStackAndItsRing) {
  // Thread-exit returns the record to the pool; the next thread to open a
  // span leases the same one. The dead thread's ring events stay visible,
  // but its frames -- including a span it never closed -- must not leak
  // into the heir's stack.
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.clear();
  recorder.start_sampler(std::chrono::milliseconds(1));

  const obs::recorder_detail::ThreadRecord* first = nullptr;
  alignas(obs::Span) unsigned char unclosed[sizeof(obs::Span)];
  std::thread([&first, &unclosed] {
    // Never destroyed: the thread exits with this span still open.
    new (unclosed) obs::Span(obs::default_tracer(), "dp.test.unclosed");
    DP_SPAN_CAT("dp.test.departed", "test");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    first = obs::recorder_detail::t_record;
  }).join();
  ASSERT_NE(first, nullptr);

  std::string slice;
  const obs::recorder_detail::ThreadRecord* second = nullptr;
  std::uint32_t depth_before = 99;
  std::thread([&] {
    DP_SPAN_CAT("dp.test.heir", "test");
    second = obs::recorder_detail::t_record;
    depth_before = second->depth.load() - 1;
    slice = recorder.self_slice(0);
  }).join();
  recorder.stop_sampler();
  recorder.set_enabled(false);

  EXPECT_EQ(second, first) << "the free list hands back the exited record";
  EXPECT_EQ(depth_before, 0u) << "the exited thread's frames were cleared";
  EXPECT_EQ(slice.rfind("dp.test.heir ", 0), 0u) << slice;
  EXPECT_EQ(slice.find("dp.test.unclosed"), std::string::npos) << slice;
  std::set<std::string> names;
  for (const obs::Recorder::Event& event : recorder.snapshot()) {
    names.insert(event.name);
  }
  EXPECT_TRUE(names.count("dp.test.departed")) << "the dead thread's ring";
  EXPECT_TRUE(names.count("dp.test.heir"));
  recorder.clear();
}

// Captured by a log sink while a rule span is the innermost open frame.
const char* g_top_frame = nullptr;
std::uint32_t g_top_frame_len = 0;

void capture_top_frame(LogLevel, const char*, std::size_t) {
  const obs::recorder_detail::ThreadRecord* r = obs::recorder_detail::t_record;
  const std::uint32_t depth = r->depth.load();
  g_top_frame = r->frames[depth - 1].name.load();
  g_top_frame_len = r->frames[depth - 1].len.load();
}

TEST(Recorder, RuleSpanLabelsOutliveTheirEngine) {
  // The sampler loads a frame's name pointer and copies the bytes later,
  // with nothing tying the copy to the engine that pushed the frame, and
  // DiffProv builds and destroys an engine per replay. So a rule label must
  // stay readable after its engine is gone (ASan reports a use-after-free
  // otherwise). The warning this rule logs mid-firing stands in for a
  // sampler preempted between its load and its copy.
  obs::Recorder::instance().set_enabled(true);
  set_log_sink(&capture_top_frame);
  {
    Engine engine(parse_program(R"(
      table base(2) base mutable keys(0).
      table out(2) derived.
      rule misrouted out(@V, N) :- base(@N, V).
    )"),
                  {});
    engine.schedule_insert(Tuple("base", {"n1", 1}), 0);
    engine.run();
  }
  set_log_sink(nullptr);
  obs::Recorder::instance().set_enabled(false);
  ASSERT_NE(g_top_frame, nullptr) << "the rule never logged mid-firing";
  EXPECT_EQ(std::string(g_top_frame, g_top_frame_len), "rule:misrouted");
  obs::Recorder::instance().clear();
}

// One full SDN1 diagnosis under explicit engine options.
std::string diagnose_sdn1_fingerprint_with(const ReplayOptions& options) {
  sdn::Scenario s = sdn::sdn1();
  LogReplayProvider provider(s.program, s.topology, s.log, options);
  const BadRun run = provider.replay_bad({});
  const auto good_tree = locate_tree(*run.graph, s.good_event);
  const auto bad_tree = locate_tree(*run.graph, s.bad_event);
  if (!good_tree || !bad_tree) return "tree missing";
  DiffProv diffprov(s.program, provider);
  const DiffProvResult result = diffprov.diagnose(*good_tree, s.bad_event);
  return good_tree->to_text() + "\n---\n" + bad_tree->to_text() + "\n---\n" +
         result.to_string();
}

TEST(Profiler, DiagnosisSamplesItselfOnlyIntoAnEmptyProfile) {
  // No sampler: the diagnosis's own synchronous sample is the only source.
  obs::Recorder& recorder = obs::Recorder::instance();
  recorder.stop_sampler();
  recorder.clear();
  recorder.set_enabled(true);
  diagnose_sdn1_fingerprint_with({});
  EXPECT_EQ(recorder.samples(), 1u);
  const std::string first = recorder.collapsed();
  EXPECT_EQ(first.rfind("dp.diffprov.diagnose", 0), 0u) << first;

  // A second diagnosis leaves a non-empty profile alone.
  diagnose_sdn1_fingerprint_with({});
  EXPECT_EQ(recorder.samples(), 1u);
  EXPECT_EQ(recorder.collapsed(), first);
  recorder.set_enabled(false);
  recorder.clear();
}

TEST(Profiler, DiagnosisIsByteIdenticalWithProfilerOnAcrossExecVariants) {
  obs::Recorder& recorder = obs::Recorder::instance();
  struct Variant {
    const char* name;
    bool plans;
  };
  for (const Variant v : {Variant{"fullscan", false}, Variant{"row", true}}) {
    ReplayOptions options;
    options.engine_config.use_join_plans = v.plans;

    recorder.stop_sampler();
    recorder.set_enabled(false);
    const std::string off = diagnose_sdn1_fingerprint_with(options);

    recorder.start_sampler(std::chrono::milliseconds(1));
    const std::string on = diagnose_sdn1_fingerprint_with(options);
    recorder.stop_sampler();
    recorder.set_enabled(false);

    EXPECT_EQ(off, on) << "--exec " << v.name;
    EXPECT_NE(off.find("DiffProv: success"), std::string::npos) << v.name;
  }
  recorder.clear();
}

}  // namespace
}  // namespace dp
