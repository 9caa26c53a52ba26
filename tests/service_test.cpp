// Tests for the concurrent diagnosis service (src/service): byte-identity
// with the one-shot CLI, result caching and single-flight coalescing, warm
// sessions skipping replays, admission control (shed, not block), cancel,
// and drain-on-shutdown. The concurrency tests are the TSan targets: N
// threads hammer the service with duplicate and distinct queries across
// several scenarios, and every response must equal the single-threaded CLI
// answer while exactly one underlying run happens per distinct query.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ndlog/parser.h"
#include "obs/json_check.h"
#include "obs/metrics.h"
#include "service/bounded_queue.h"
#include "service/cache.h"
#include "service/diagnose.h"
#include "service/service.h"
#include "tools/cli.h"

namespace dp::service {
namespace {

constexpr const char* kSdn1Good = "delivered(@w1, 1, 4.3.2.1, 8.8.1.1)";
constexpr const char* kSdn1Bad = "delivered(@w2, 2, 4.3.3.1, 8.8.1.1)";

/// The single-threaded in-process CLI: the byte-identity oracle.
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

QueryStatus wait_done(DiagnosisService& service, const SubmitOutcome& s) {
  EXPECT_TRUE(s.ok()) << s.error;
  auto status = service.wait(s.id);
  EXPECT_TRUE(status.has_value());
  return *status;
}

// ----------------------------------------------------- building blocks --

TEST(BoundedQueue, ShedsWhenFullAndDrainsOnClose) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full: shed, not block
  EXPECT_EQ(queue.size(), 2u);

  queue.close();
  EXPECT_FALSE(queue.try_push(4));  // closed
  EXPECT_EQ(queue.pop(), 1);       // drain continues after close
  EXPECT_EQ(queue.pop(), 2);
  EXPECT_EQ(queue.pop(), std::nullopt);  // closed + empty: consumer exits
}

TEST(BoundedQueue, CloseAndClearReturnsOrphans) {
  BoundedQueue<int> queue(4);
  queue.try_push(1);
  queue.try_push(2);
  const std::vector<int> orphans = queue.close_and_clear();
  EXPECT_EQ(orphans, (std::vector<int>{1, 2}));
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(ResultCache, LruEvictionKeepsRecentlyUsed) {
  ResultCache cache(2);
  cache.put("a", {0, "A", "", ""});
  cache.put("b", {0, "B", "", ""});
  EXPECT_TRUE(cache.get("a"));  // refresh a; b is now LRU
  cache.put("c", {0, "C", "", ""});
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("a"));
  EXPECT_TRUE(cache.get("c"));
}

TEST(ResultCache, KeyDistinguishesEveryQueryDimension) {
  const std::string base = make_cache_key(1, "bad()", "good()", false, 0);
  EXPECT_NE(base, make_cache_key(2, "bad()", "good()", false, 0));
  EXPECT_NE(base, make_cache_key(1, "bad2()", "good()", false, 0));
  EXPECT_NE(base, make_cache_key(1, "bad()", "<auto>", false, 0));
  EXPECT_NE(base, make_cache_key(1, "bad()", "good()", true, 0));
  EXPECT_NE(base, make_cache_key(1, "bad()", "good()", false, 3));
  EXPECT_EQ(base, make_cache_key(1, "bad()", "good()", false, 0));
}

TEST(StripedResultCache, SingleFlightAdmissionPerKey) {
  StripedResultCache cache(/*capacity=*/16, /*stripes=*/4);
  auto leader = std::make_shared<int>(7);

  // First admission: no cached result, no leader in flight -> the
  // enqueue_leader callback runs and its job is registered.
  auto admission = cache.admit(
      "key", nullptr, [](const std::shared_ptr<void>&) { FAIL(); },
      [&]() -> std::shared_ptr<void> { return leader; });
  EXPECT_EQ(admission, StripedResultCache::Admission::kAccepted);

  // Duplicate while in flight: coalesces onto the registered leader.
  std::shared_ptr<void> seen;
  admission = cache.admit(
      "key", nullptr, [&](const std::shared_ptr<void>& l) { seen = l; },
      [&]() -> std::shared_ptr<void> {
        ADD_FAILURE() << "duplicate must not become a second leader";
        return nullptr;
      });
  EXPECT_EQ(admission, StripedResultCache::Admission::kCoalesced);
  EXPECT_EQ(seen, leader);

  // complete() publishes and retires the leader in one critical section:
  // from here on duplicates hit the cache, and the in-flight entry is gone.
  cache.complete("key", {0, "answer", "", ""});
  CachedResult hit;
  admission = cache.admit(
      "key", &hit, [](const std::shared_ptr<void>&) { FAIL(); },
      []() -> std::shared_ptr<void> {
        ADD_FAILURE() << "cached key must not start a new run";
        return nullptr;
      });
  EXPECT_EQ(admission, StripedResultCache::Admission::kHit);
  EXPECT_EQ(hit.out, "answer");
  EXPECT_EQ(cache.take_inflight("key"), nullptr);
}

TEST(StripedResultCache, ShedLeavesNoLeaderBehind) {
  StripedResultCache cache(/*capacity=*/16, /*stripes=*/2);
  // enqueue_leader returning null models "queue full": nothing may be
  // registered, so the next attempt must retry the enqueue rather than
  // coalesce onto a job that never entered the queue.
  auto admission = cache.admit(
      "key", nullptr, [](const std::shared_ptr<void>&) { FAIL(); },
      []() -> std::shared_ptr<void> { return nullptr; });
  EXPECT_EQ(admission, StripedResultCache::Admission::kShed);

  auto leader = std::make_shared<int>(1);
  admission = cache.admit(
      "key", nullptr,
      [](const std::shared_ptr<void>&) {
        FAIL() << "shed admission must not have registered a leader";
      },
      [&]() -> std::shared_ptr<void> { return leader; });
  EXPECT_EQ(admission, StripedResultCache::Admission::kAccepted);
  EXPECT_EQ(cache.take_inflight("key"), leader);
}

TEST(StripedResultCache, LruIsPerStripeAndHitsCountPerStripe) {
  obs::MetricsRegistry registry;
  // Total capacity 8 over 4 stripes = 2 entries per stripe.
  StripedResultCache cache(/*capacity=*/8, /*stripes=*/4, &registry);
  ASSERT_EQ(cache.stripe_count(), 4u);

  // Collect three keys that land in the same stripe: the third insert must
  // evict that stripe's LRU entry even though the cache as a whole is far
  // under its total capacity.
  std::vector<std::string> same_stripe;
  const std::size_t target = cache.stripe_of("probe");
  for (int i = 0; same_stripe.size() < 3 && i < 1000; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (cache.stripe_of(key) == target) same_stripe.push_back(key);
  }
  ASSERT_EQ(same_stripe.size(), 3u);

  cache.complete(same_stripe[0], {0, "0", "", ""});
  cache.complete(same_stripe[1], {0, "1", "", ""});
  EXPECT_TRUE(cache.get(same_stripe[0]));  // refresh: [1] becomes the LRU
  cache.complete(same_stripe[2], {0, "2", "", ""});
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.get(same_stripe[1]));
  EXPECT_TRUE(cache.get(same_stripe[0]));
  EXPECT_TRUE(cache.get(same_stripe[2]));
  EXPECT_EQ(cache.size(), 2u);

  // Hits are attributed to the key's stripe.
  const std::string series =
      "dp.service.cache.stripe." + std::to_string(target) + ".hits";
  EXPECT_GE(registry.counter(series).value(), 3u);
}

TEST(BoundedQueue, ConcurrentProducersAndConsumersDeliverEverythingOnce) {
  // The TSan stress for the per-shard queue: 8 producers, 8 consumers, no
  // item lost, duplicated, or delivered after close-and-drain.
  constexpr int kProducers = 8;
  constexpr int kConsumers = 8;
  constexpr int kPerProducer = 200;
  BoundedQueue<int> queue(32);

  std::atomic<long long> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::vector<std::thread> consumers;
  consumers.reserve(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.pop()) {
        popped_sum.fetch_add(*item, std::memory_order_relaxed);
        popped_count.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  long long pushed_sum = 0;
  std::atomic<long long> pushed_sums{0};
  std::atomic<int> pushed_count{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      long long local = 0;
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        // Spin on shed: the stress wants every item through the queue, so a
        // full queue means "try again", exercising the push/pop race.
        while (!queue.try_push(value)) std::this_thread::yield();
        local += value;
      }
      pushed_sums.fetch_add(local, std::memory_order_relaxed);
      pushed_count.fetch_add(kPerProducer, std::memory_order_relaxed);
    });
  }
  for (auto& producer : producers) producer.join();
  pushed_sum = pushed_sums.load();
  queue.close();  // consumers drain the remainder, then exit on nullopt
  for (auto& consumer : consumers) consumer.join();

  EXPECT_EQ(popped_count.load(), pushed_count.load());
  EXPECT_EQ(popped_sum.load(), pushed_sum);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.pop(), std::nullopt);
}

// -------------------------------------------------------- byte identity --

TEST(Service, AnswersAreByteIdenticalToTheCli) {
  const CliAnswer expected =
      run_cli({"--scenario", "sdn1", "--good", kSdn1Good, "--bad", kSdn1Bad});
  ASSERT_EQ(expected.exit_code, 0);

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 2;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  query.good = kSdn1Good;
  query.bad = kSdn1Bad;
  const QueryStatus status = wait_done(service, service.submit(query));
  EXPECT_EQ(status.state, QueryState::kDone);
  EXPECT_EQ(status.result.out, expected.out);
  EXPECT_EQ(status.result.err, expected.err);
  EXPECT_EQ(status.result.exit_code, expected.exit_code);
}

TEST(Service, AutoReferenceAndMinimizeMatchTheCliToo) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  {
    const CliAnswer expected =
        run_cli({"--scenario", "sdn1", "--auto-reference"});
    Query query;
    query.scenario = "sdn1";
    query.auto_reference = true;
    const QueryStatus status = wait_done(service, service.submit(query));
    EXPECT_EQ(status.result.out, expected.out);
    EXPECT_EQ(status.result.exit_code, expected.exit_code);
  }
  {
    const CliAnswer expected = run_cli({"--scenario", "sdn2", "--minimize"});
    Query query;
    query.scenario = "sdn2";
    query.minimize = true;
    const QueryStatus status = wait_done(service, service.submit(query));
    EXPECT_EQ(status.result.out, expected.out);
    EXPECT_EQ(status.result.exit_code, expected.exit_code);
  }
}

/// An inline problem: a two-entry forwarding table and two packets.
constexpr const char* kInlineProgram = R"(
    table packet(3) base immutable event.
    table flowEntry(4) keys(0, 2) base mutable.
    table delivered(3) derived.
    table packetAt(3) derived event.
    rule r0 packetAt(@Sw, Pkt, Dst) :- packet(@Sw, Pkt, Dst).
    rule r1 argmax Prio
      delivered(@Next, Pkt, Dst) :-
        packetAt(@Sw, Pkt, Dst),
        flowEntry(@Sw, Prio, Prefix, Next),
        f_matches(Dst, Prefix) == 1.
)";
constexpr const char* kInlineLog =
    "+ flowEntry(@S1, 10, 10.0.0.0/8, \"h1\") @ 0\n"
    "+ flowEntry(@S1, 5, 20.0.0.0/8, \"h2\") @ 0\n"
    "+ packet(@S1, 1, 10.1.1.1) @ 100\n"
    "+ packet(@S1, 2, 20.1.1.1) @ 200\n";

TEST(Service, InlineProblemsMatchTheCliFilePath) {
  // The same program/log text through both front-ends: --program/--log
  // files for the CLI, inline JSON-style text for the service.
  const std::string program_text = kInlineProgram;
  const std::string log_text = kInlineLog;
  const std::string dir = ::testing::TempDir();
  const std::string program_path = dir + "/service_test_program.ndlog";
  const std::string log_path = dir + "/service_test_log.txt";
  std::ofstream(program_path) << program_text;
  std::ofstream(log_path) << log_text;

  const std::string good = "delivered(@h1, 1, 10.1.1.1)";
  const std::string bad = "delivered(@h2, 2, 20.1.1.1)";
  const CliAnswer expected = run_cli({"--program", program_path, "--log",
                                      log_path, "--good", good, "--bad", bad});

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  Query query;
  query.program_text = program_text;
  query.log_text = log_text;
  query.good = good;
  query.bad = bad;
  const QueryStatus status = wait_done(service, service.submit(query));
  EXPECT_EQ(status.result.out, expected.out);
  EXPECT_EQ(status.result.err, expected.err);
  EXPECT_EQ(status.result.exit_code, expected.exit_code);

  // Same text again: same session, same cache line.
  const QueryStatus again = wait_done(service, service.submit(query));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.result.out, expected.out);
}

TEST(Service, InlineProblemsOverOneLogKeepTheirOwnCacheLines) {
  // Two programs over one log are two problems: the second must not be
  // answered from the first one's cache line.
  std::string other_program = kInlineProgram;
  other_program.replace(other_program.find("== 1"), 4, "== 2");

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);
  Query query;
  query.program_text = kInlineProgram;
  query.log_text = kInlineLog;
  query.good = "delivered(@h1, 1, 10.1.1.1)";
  query.bad = "delivered(@h2, 2, 20.1.1.1)";
  const QueryStatus first = wait_done(service, service.submit(query));
  EXPECT_EQ(first.result.exit_code, 0) << first.result.err;

  query.program_text = other_program;
  const QueryStatus second = wait_done(service, service.submit(query));
  query.bypass_cache = true;
  const QueryStatus own = wait_done(service, service.submit(query));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(own.result.exit_code, 1);
  EXPECT_NE(own.result.err.find("does not occur"), std::string::npos)
      << own.result.err;
  EXPECT_EQ(second.result.exit_code, own.result.exit_code);
  EXPECT_EQ(second.result.out, own.result.out);
  EXPECT_EQ(second.result.err, own.result.err);
}

TEST(Service, ValidationErrorsAreExplicit) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;  // names nothing
  EXPECT_FALSE(service.submit(query).ok());

  query.scenario = "no-such-scenario";
  const SubmitOutcome unknown = service.submit(query);
  EXPECT_FALSE(unknown.ok());
  EXPECT_NE(unknown.error.find("no-such-scenario"), std::string::npos);

  query.scenario = "sdn1";
  query.bad = "not a tuple ((";
  const SubmitOutcome malformed = service.submit(query);
  EXPECT_FALSE(malformed.ok());
  EXPECT_NE(malformed.error.find("bad tuple"), std::string::npos);
}

// --------------------------------------- cache, coalescing, warm state --

TEST(Service, RepeatQueryHitsTheCacheWithoutASecondRun) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  const QueryStatus first = wait_done(service, service.submit(query));
  EXPECT_FALSE(first.cache_hit);
  const QueryStatus second = wait_done(service, service.submit(query));
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.result.out, first.result.out);

  EXPECT_EQ(registry.counter("dp.service.runs").value(), 1u);
  EXPECT_EQ(registry.counter("dp.service.cache.hits").value(), 1u);
  EXPECT_EQ(registry.counter("dp.service.cache.misses").value(), 1u);
}

TEST(Service, WarmSessionSkipsTheReplayOnLaterQueries) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  wait_done(service, service.submit(query));
  // A *distinct* query against the same scenario (different key, so no
  // cache hit): the resident run serves it without a fresh full replay.
  query.minimize = true;
  wait_done(service, service.submit(query));

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.per_session.size(), 1u);
  const SessionStats& session = stats.per_session[0].second;
  EXPECT_EQ(session.queries, 2u);
  EXPECT_EQ(session.cold_replays, 1u);
  EXPECT_EQ(session.warm_hits, 1u);
  EXPECT_EQ(registry.counter("dp.service.session.cold_replays").value(), 1u);
  EXPECT_EQ(registry.counter("dp.service.session.warm_hits").value(), 1u);
}

TEST(DiagnosePipeline, ColdDiagnosisReplaysOncePerRoundAndMatchesWarm) {
  // The cold path replays the log once and hands that run to DiffProv, so
  // DiffProv's own replays are its UpdateTree rounds -- exactly what the
  // warm path, which replays nothing up front, reports too.
  for (const char* name : {"sdn1", "sdn2", "sdn3", "sdn4"}) {
    std::ostringstream err;
    const std::optional<Problem> problem = builtin_scenario(name, err);
    ASSERT_TRUE(problem.has_value()) << err.str();
    DiagnoseSpec spec;
    spec.good_event = problem->good_event;
    spec.bad_event = *problem->bad_event;
    const DiagnoseOutcome cold = diagnose_problem(*problem, spec, {});
    EXPECT_FALSE(cold.profile.warm_reuse);
    EXPECT_GT(cold.profile.rounds, 0) << name;
    EXPECT_EQ(cold.profile.timing.replays, cold.profile.rounds) << name;

    LogReplayProvider provider(problem->program, problem->topology,
                               problem->log);
    const auto warm_run = std::make_shared<const BadRun>(provider.replay_bad({}));
    const DiagnoseOutcome warm = diagnose_problem(*problem, spec, {}, warm_run);
    EXPECT_TRUE(warm.profile.warm_reuse);
    EXPECT_EQ(warm.profile.timing.replays, cold.profile.timing.replays);
    EXPECT_EQ(warm.exit_code, cold.exit_code) << name;
    EXPECT_EQ(warm.out, cold.out) << name;
  }
}

TEST(SessionManager, ByteBudgetCoolsLruSessionsByMeasuredFootprint) {
  obs::MetricsRegistry registry;
  // A 1-byte budget: any warm session exceeds it, so after warming two
  // sessions the LRU one must be cooled while the most recent is spared
  // (cooling it too would defeat the warm tier entirely).
  SessionManager manager(/*max_warm=*/8, /*warm_bytes_budget=*/1,
                         ReplayOptions{}, registry);
  std::string error;
  std::shared_ptr<WarmSession> a = manager.get_scenario("sdn1", error);
  ASSERT_NE(a, nullptr) << error;
  std::shared_ptr<WarmSession> b = manager.get_scenario("sdn2", error);
  ASSERT_NE(b, nullptr) << error;
  {
    std::lock_guard<std::mutex> lock(a->mutex());
    a->ensure_warm();
    // Footprint is measured, not assumed: a replayed SDN1 graph is far more
    // than the 1-byte floor.
    EXPECT_GT(a->resident_bytes(), 1u);
  }
  {
    std::lock_guard<std::mutex> lock(b->mutex());
    b->ensure_warm();
  }
  manager.enforce_budget();
  {
    std::lock_guard<std::mutex> lock(a->mutex());
    EXPECT_FALSE(a->is_warm());
    EXPECT_EQ(a->resident_bytes(), 0u);
  }
  {
    std::lock_guard<std::mutex> lock(b->mutex());
    EXPECT_TRUE(b->is_warm());
  }
  EXPECT_EQ(registry.counter("dp.service.session.evictions").value(), 1u);
  EXPECT_EQ(manager.warm_bytes(), b->resident_bytes());
  EXPECT_EQ(registry.gauge("dp.service.session.resident_bytes").value(),
            static_cast<std::int64_t>(manager.warm_bytes()));
}

TEST(SessionManager, GenerousByteBudgetKeepsTheWarmSetResident) {
  obs::MetricsRegistry registry;
  SessionManager manager(/*max_warm=*/8, /*warm_bytes_budget=*/1ull << 30,
                         ReplayOptions{}, registry);
  std::string error;
  std::shared_ptr<WarmSession> a = manager.get_scenario("sdn1", error);
  ASSERT_NE(a, nullptr) << error;
  std::shared_ptr<WarmSession> b = manager.get_scenario("sdn2", error);
  ASSERT_NE(b, nullptr) << error;
  for (const auto& session : {a, b}) {
    std::lock_guard<std::mutex> lock(session->mutex());
    session->ensure_warm();
  }
  manager.enforce_budget();
  for (const auto& session : {a, b}) {
    std::lock_guard<std::mutex> lock(session->mutex());
    EXPECT_TRUE(session->is_warm());
  }
  EXPECT_EQ(registry.counter("dp.service.session.evictions").value(), 0u);
  EXPECT_EQ(manager.warm_bytes(), a->resident_bytes() + b->resident_bytes());
}

TEST(SessionManager, StatsNeverStallLookupsBehindABusySession) {
  // A stats reader waits for a session a worker holds; lookups of other
  // sessions on the same manager must not wait behind it.
  obs::MetricsRegistry registry;
  SessionManager manager(/*max_warm=*/8, /*warm_bytes_budget=*/0,
                         ReplayOptions{}, registry);
  std::string error;
  std::shared_ptr<WarmSession> busy = manager.get_scenario("sdn1", error);
  ASSERT_NE(busy, nullptr) << error;

  std::unique_lock<std::mutex> worker(busy->mutex());
  std::thread reader([&] { (void)manager.stats(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::string lookup_error;
  auto lookup = std::async(std::launch::async, [&] {
    return manager.get_scenario("sdn2", lookup_error);
  });
  const bool finished =
      lookup.wait_for(std::chrono::seconds(2)) == std::future_status::ready;
  worker.unlock();
  reader.join();
  EXPECT_TRUE(finished) << "a lookup stalled behind a stats reader";
  EXPECT_NE(lookup.get(), nullptr) << lookup_error;
}

TEST(WarmSession, CooledProbesRestoreFromTheCheckpoint) {
  obs::MetricsRegistry registry;
  std::ostringstream err;
  std::optional<Problem> problem = builtin_scenario("sdn1", err);
  ASSERT_TRUE(problem.has_value()) << err.str();
  WarmSession session("sdn1", std::move(*problem), ReplayOptions{}, registry);
  const Tuple present =
      parse_tuple("policyRoute(@ctl, \"sw2\", 100, 4.3.2.0/24, \"sw6\")");
  const Tuple absent =
      parse_tuple("policyRoute(@ctl, \"sw2\", 100, 9.9.9.0/24, \"sw6\")");

  std::lock_guard<std::mutex> lock(session.mutex());
  session.ensure_warm();
  const bool warm_present = session.probe_live(present);
  const bool warm_absent = session.probe_live(absent);
  EXPECT_TRUE(warm_present);
  EXPECT_FALSE(warm_absent);

  // Cooled, the session answers from checkpoint + log suffix: the same
  // answers, one restore shared by both probes, and no second replay.
  session.cool();
  EXPECT_EQ(session.probe_live(present), warm_present);
  EXPECT_EQ(session.probe_live(absent), warm_absent);
  EXPECT_FALSE(session.is_warm());
  EXPECT_EQ(session.stats().checkpoint_restores, 1u);
  EXPECT_EQ(session.stats().cold_replays, 1u);
  EXPECT_EQ(registry.counter("dp.service.session.checkpoint_restores").value(),
            1u);
}

TEST(Service, BypassCacheAlwaysRuns) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  query.bypass_cache = true;
  const QueryStatus first = wait_done(service, service.submit(query));
  const QueryStatus second = wait_done(service, service.submit(query));
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.result.out, first.result.out);
  EXPECT_EQ(registry.counter("dp.service.runs").value(), 2u);
}

// ------------------------------------------------- admission + cancel --

/// Holds every job at the on_job_start hook until release() -- makes queue
/// occupancy deterministic for the shed/cancel tests.
class WorkerGate {
 public:
  void wait_at_gate() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    arrived_cv_.notify_all();
    open_cv_.wait(lock, [&] { return open_; });
  }
  void await_arrivals(int n) {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void release() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    open_cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_cv_, open_cv_;
  int arrived_ = 0;
  bool open_ = false;
};

TEST(Service, FullQueueShedsInsteadOfBlocking) {
  WorkerGate gate;
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 1;
  config.metrics = &registry;
  config.on_job_start = [&gate] { gate.wait_at_gate(); };
  DiagnosisService service(config);

  // Three distinct keys against one scenario. A occupies the worker (held
  // at the gate), B occupies the single queue slot, C must be shed.
  Query a, b, c;
  a.scenario = b.scenario = c.scenario = "sdn1";
  b.minimize = true;
  c.auto_reference = true;

  const SubmitOutcome sa = service.submit(a);
  ASSERT_TRUE(sa.ok());
  gate.await_arrivals(1);  // the worker holds A; the queue is empty again

  const SubmitOutcome sb = service.submit(b);
  ASSERT_TRUE(sb.ok());
  const SubmitOutcome sc = service.submit(c);
  EXPECT_FALSE(sc.ok());
  EXPECT_TRUE(sc.shed);
  EXPECT_NE(sc.error.find("queue full"), std::string::npos);
  EXPECT_EQ(registry.counter("dp.service.shed").value(), 1u);

  // A duplicate of the queued query still coalesces -- duplicates never
  // occupy queue slots, so they are not shed.
  const SubmitOutcome sb2 = service.submit(b);
  EXPECT_TRUE(sb2.ok());

  gate.release();
  EXPECT_EQ(wait_done(service, sa).state, QueryState::kDone);
  EXPECT_EQ(wait_done(service, sb).state, QueryState::kDone);
  const QueryStatus dup = wait_done(service, sb2);
  EXPECT_EQ(dup.state, QueryState::kDone);
  EXPECT_TRUE(dup.coalesced);
}

TEST(Service, CancelStopsQueuedQueriesOnly) {
  WorkerGate gate;
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 1;
  config.queue_capacity = 8;
  config.metrics = &registry;
  config.on_job_start = [&gate] { gate.wait_at_gate(); };
  DiagnosisService service(config);

  Query a, b;
  a.scenario = b.scenario = "sdn1";
  b.minimize = true;
  const SubmitOutcome sa = service.submit(a);
  gate.await_arrivals(1);
  const SubmitOutcome sb = service.submit(b);

  EXPECT_FALSE(service.cancel(sa.id)) << "A is already running";
  EXPECT_TRUE(service.cancel(sb.id));
  EXPECT_FALSE(service.cancel(sb.id)) << "second cancel is a no-op";
  EXPECT_EQ(registry.counter("dp.service.cancelled").value(), 1u);

  gate.release();
  EXPECT_EQ(wait_done(service, sa).state, QueryState::kDone);
  const auto cancelled = service.wait(sb.id);
  ASSERT_TRUE(cancelled.has_value());
  EXPECT_EQ(cancelled->state, QueryState::kCancelled);
  // The cancelled job never ran: one run for A only.
  EXPECT_EQ(registry.counter("dp.service.runs").value(), 1u);
}

TEST(Service, ShutdownDrainsQueuedWork) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 1;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query a, b;
  a.scenario = "sdn1";
  b.scenario = "sdn2";
  const SubmitOutcome sa = service.submit(a);
  const SubmitOutcome sb = service.submit(b);
  service.shutdown(/*drain=*/true);

  EXPECT_EQ(service.poll(sa.id)->state, QueryState::kDone);
  EXPECT_EQ(service.poll(sb.id)->state, QueryState::kDone);
  EXPECT_FALSE(service.submit(a).ok()) << "no admissions after shutdown";
}

// --------------------------------------- watchdog + explain profiles --

TEST(Service, WatchdogFlagsAStuckWorkerAndRecovers) {
  WorkerGate gate;
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 1;
  config.metrics = &registry;
  // A deliberately tiny deadline with a fast watchdog: the gated worker
  // must be flagged within a few ticks.
  config.worker_deadline = std::chrono::milliseconds(50);
  config.watchdog_interval = std::chrono::milliseconds(10);
  config.on_job_start = [&gate] { gate.wait_at_gate(); };
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  const SubmitOutcome s = service.submit(query);
  ASSERT_TRUE(s.ok());
  gate.await_arrivals(1);

  obs::Gauge& stuck = registry.gauge("dp.service.worker.stuck");
  bool flagged = false;
  for (int i = 0; i < 500 && !flagged; ++i) {
    flagged = stuck.value() >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(flagged) << "watchdog never flagged the pinned worker";

  gate.release();
  EXPECT_EQ(wait_done(service, s).state, QueryState::kDone);
  // Once the job completes the next tick clears the flag.
  bool cleared = false;
  for (int i = 0; i < 500 && !cleared; ++i) {
    cleared = stuck.value() == 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(cleared) << "stuck gauge must drop once the worker returns";
}

TEST(Service, CompletedQueriesCarryAnExplainProfile) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  query.trace_id = 0xabc123;
  const QueryStatus status = wait_done(service, service.submit(query));
  ASSERT_EQ(status.state, QueryState::kDone);
  ASSERT_FALSE(status.result.profile_json.empty());

  std::string error;
  const auto profile = obs::Json::parse(status.result.profile_json, error);
  ASSERT_TRUE(profile.has_value()) << error << " in "
                                   << status.result.profile_json;
  EXPECT_EQ(profile->get_string("trace_id"), "abc123");
  EXPECT_FALSE(profile->get_bool("warm_hit")) << "first query replays cold";
  EXPECT_GE(profile->get_number("rounds"), 1);
  EXPECT_GT(profile->get_number("bad_tree_size"), 0);

  // The accounting invariant --explain relies on: the named phases plus the
  // other_us remainder sum *exactly* to total_us.
  const obs::Json* phases = profile->find("phases");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->kind, obs::Json::Kind::kObject);
  double phase_sum = 0;
  for (const auto& [name, value] : phases->object) {
    ASSERT_EQ(value.kind, obs::Json::Kind::kNumber) << name;
    EXPECT_GE(value.number, 0) << name;
    phase_sum += value.number;
  }
  EXPECT_NE(phases->find("replay_us"), nullptr);
  EXPECT_NE(phases->find("find_seed_us"), nullptr);
  EXPECT_NE(phases->find("divergence_us"), nullptr);
  EXPECT_DOUBLE_EQ(phase_sum, profile->get_number("total_us"));
  EXPECT_GT(profile->get_number("total_us"), 0);

  // A cache hit serves the stored profile verbatim (it describes the run
  // that produced the cached answer, not the hit).
  const QueryStatus again = wait_done(service, service.submit(query));
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.result.profile_json, status.result.profile_json);

  // A distinct query on the warm session reports warm_hit.
  Query warm = query;
  warm.minimize = true;
  const QueryStatus warmed = wait_done(service, service.submit(warm));
  std::string warm_error;
  const auto warm_profile =
      obs::Json::parse(warmed.result.profile_json, warm_error);
  ASSERT_TRUE(warm_profile.has_value()) << warm_error;
  EXPECT_TRUE(warm_profile->get_bool("warm_hit"));
}

// ------------------------------------------------------- concurrency --
// The TSan targets: everything below runs many client threads against one
// service instance.

TEST(ServiceConcurrency, MixedDuplicateAndDistinctQueriesMatchTheCli) {
  // Four distinct queries across two scenarios; every thread submits all of
  // them several times in a scrambled order.
  struct Case {
    Query query;
    CliAnswer expected;
  };
  std::vector<Case> cases(4);
  cases[0].query.scenario = "sdn1";
  cases[0].expected = run_cli({"--scenario", "sdn1"});
  cases[1].query.scenario = "sdn1";
  cases[1].query.minimize = true;
  cases[1].expected = run_cli({"--scenario", "sdn1", "--minimize"});
  cases[2].query.scenario = "sdn2";
  cases[2].expected = run_cli({"--scenario", "sdn2"});
  cases[3].query.scenario = "sdn2";
  cases[3].query.auto_reference = true;
  cases[3].expected = run_cli({"--scenario", "sdn2", "--auto-reference"});

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 4;
  config.queue_capacity = 256;
  config.metrics = &registry;
  DiagnosisService service(config);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const Case& c = cases[(i + t + round) % cases.size()];
          const SubmitOutcome s = service.submit(c.query);
          if (!s.ok()) {
            ++mismatches;
            continue;
          }
          const auto status = service.wait(s.id);
          if (!status || status->state != QueryState::kDone ||
              status->result.out != c.expected.out ||
              status->result.exit_code != c.expected.exit_code) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Single-flight + cache: however the 96 submissions interleaved, each
  // distinct query ran exactly once.
  EXPECT_EQ(registry.counter("dp.service.runs").value(), cases.size());
  EXPECT_EQ(registry.counter("dp.service.submitted").value(),
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread) *
                cases.size());
  const std::uint64_t hits = registry.counter("dp.service.cache.hits").value();
  const std::uint64_t coalesced =
      registry.counter("dp.service.cache.coalesced").value();
  EXPECT_EQ(hits + coalesced + cases.size(),
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread) *
                cases.size());
}

TEST(ServiceConcurrency, ParallelProbesAndQueriesStayConsistent) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 4;
  config.metrics = &registry;
  DiagnosisService service(config);

  // A base tuple present in sdn1's log and one that is not.
  const std::string present = "policyRoute(@ctl, \"sw2\", 100, 4.3.2.0/24, \"sw6\")";
  const std::string absent = "policyRoute(@ctl, \"sw2\", 100, 9.9.9.0/24, \"sw6\")";

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 5; ++i) {
        if (t % 2 == 0) {
          Query query;
          query.scenario = "sdn1";
          const SubmitOutcome s = service.submit(query);
          if (!s.ok() || !service.wait(s.id)) ++failures;
        } else {
          bool live = false;
          const SubmitOutcome s =
              service.probe("sdn1", i % 2 == 0 ? present : absent, live);
          if (!s.ok() || live != (i % 2 == 0)) ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ServiceConcurrency, ShutdownRacesWithSubmittersSafely) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.workers = 2;
  config.metrics = &registry;
  auto service = std::make_unique<DiagnosisService>(config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      Query query;
      query.scenario = "sdn3";
      while (!stop.load(std::memory_order_relaxed)) {
        const SubmitOutcome s = service->submit(query);
        if (!s.ok()) break;  // shutdown closed admissions: expected
        if (!service->wait(s.id)) break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service->shutdown(/*drain=*/true);
  stop.store(true);
  for (auto& thread : submitters) thread.join();
  // Drained shutdown: everything admitted also completed (or was cancelled).
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.shed);
}

// ----------------------------------------------------------- sharding --
// The same serving invariants, with the service split into independent
// shards: answers stay byte-identical, single-flight stays per-key (the
// cache stripes are shared across shards), tickets route by the shard index
// in their id, and the warm-byte budget rebalances across shards.

TEST(ShardedService, AnswersAreByteIdenticalAcrossShards) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.shards = 4;
  config.workers = 2;
  config.metrics = &registry;
  DiagnosisService service(config);
  ASSERT_EQ(service.shard_count(), 4u);

  for (const char* scenario : {"sdn1", "sdn2", "sdn3", "sdn4"}) {
    const CliAnswer expected = run_cli({"--scenario", scenario});
    Query query;
    query.scenario = scenario;
    const QueryStatus status = wait_done(service, service.submit(query));
    EXPECT_EQ(status.state, QueryState::kDone);
    EXPECT_EQ(status.result.out, expected.out) << scenario;
    EXPECT_EQ(status.result.exit_code, expected.exit_code) << scenario;
  }
}

TEST(ShardedService, ExactlyOneRunPerDistinctQueryAcrossShards) {
  struct Case {
    Query query;
    CliAnswer expected;
  };
  std::vector<Case> cases(4);
  cases[0].query.scenario = "sdn1";
  cases[0].expected = run_cli({"--scenario", "sdn1"});
  cases[1].query.scenario = "sdn2";
  cases[1].expected = run_cli({"--scenario", "sdn2"});
  cases[2].query.scenario = "sdn3";
  cases[2].expected = run_cli({"--scenario", "sdn3"});
  cases[3].query.scenario = "sdn4";
  cases[3].query.minimize = true;
  cases[3].expected = run_cli({"--scenario", "sdn4", "--minimize"});

  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.shards = 4;
  config.workers = 2;
  config.queue_capacity = 256;
  config.metrics = &registry;
  DiagnosisService service(config);

  constexpr int kThreads = 8;
  constexpr int kRoundsPerThread = 3;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRoundsPerThread; ++round) {
        for (std::size_t i = 0; i < cases.size(); ++i) {
          const Case& c = cases[(i + t + round) % cases.size()];
          const SubmitOutcome s = service.submit(c.query);
          if (!s.ok()) {
            ++mismatches;
            continue;
          }
          const auto status = service.wait(s.id);
          if (!status || status->state != QueryState::kDone ||
              status->result.out != c.expected.out ||
              status->result.exit_code != c.expected.exit_code) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Sharding must not loosen the single-flight guarantee: one underlying
  // run per distinct query, wherever its shard and cache stripe landed.
  EXPECT_EQ(registry.counter("dp.service.runs").value(), cases.size());
  const std::uint64_t hits = registry.counter("dp.service.cache.hits").value();
  const std::uint64_t coalesced =
      registry.counter("dp.service.cache.coalesced").value();
  EXPECT_EQ(hits + coalesced + cases.size(),
            static_cast<std::uint64_t>(kThreads * kRoundsPerThread) *
                cases.size());
}

TEST(ShardedService, TicketsRouteByShardAndStatsAggregate) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.shards = 4;
  config.metrics = &registry;
  DiagnosisService service(config);

  Query query;
  query.scenario = "sdn1";
  const SubmitOutcome s = service.submit(query);
  ASSERT_TRUE(s.ok());
  // The ticket id carries its shard in the high bits and routes back to it.
  EXPECT_EQ(s.id >> 48, service.shard_of_key("sdn1"));
  EXPECT_TRUE(service.poll(s.id).has_value());
  // An id minted for a shard that does not exist is unknown, not a crash.
  EXPECT_FALSE(service.poll((33ull << 48) | 1).has_value());
  EXPECT_FALSE(service.wait((7ull << 48) | 999).has_value());
  EXPECT_FALSE(service.cancel((7ull << 48) | 999));
  EXPECT_EQ(wait_done(service, s).state, QueryState::kDone);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shards, 4u);
  EXPECT_EQ(stats.shard_queue_depths.size(), 4u);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);

  // Every shard publishes its queue-depth gauge at construction.
  const std::string metrics_json = registry.to_json();
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(metrics_json.find("dp.service.shard." + std::to_string(i) +
                                ".queue_depth"),
              std::string::npos);
  }
}

TEST(ShardedService, OneShardSheddingLeavesOthersServing) {
  WorkerGate gate;
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.shards = 4;
  config.workers = 1;
  config.queue_capacity = 1;  // per shard
  config.metrics = &registry;
  config.on_job_start = [&gate] { gate.wait_at_gate(); };
  DiagnosisService service(config);

  // Two scenarios on different shards: overloading one lane must not
  // reject work routed to another.
  const std::vector<std::string> scenarios = {"sdn1", "sdn2", "sdn3", "sdn4"};
  std::string busy = scenarios[0];
  std::string other;
  for (const std::string& candidate : scenarios) {
    if (service.shard_of_key(candidate) != service.shard_of_key(busy)) {
      other = candidate;
      break;
    }
  }
  ASSERT_FALSE(other.empty()) << "all four scenarios hashed to one shard";

  Query a, b, c, d;
  a.scenario = b.scenario = c.scenario = busy;
  b.minimize = true;
  c.auto_reference = true;
  d.scenario = other;

  const SubmitOutcome sa = service.submit(a);
  ASSERT_TRUE(sa.ok());
  gate.await_arrivals(1);  // busy shard's one worker holds A
  const SubmitOutcome sb = service.submit(b);
  ASSERT_TRUE(sb.ok());  // occupies the busy shard's single queue slot
  const SubmitOutcome sc = service.submit(c);
  EXPECT_TRUE(sc.shed) << "third distinct query on the busy shard must shed";
  const SubmitOutcome sd = service.submit(d);
  EXPECT_TRUE(sd.ok()) << "the other shard's queue is empty: " << sd.error;

  gate.release();
  EXPECT_EQ(wait_done(service, sa).state, QueryState::kDone);
  EXPECT_EQ(wait_done(service, sb).state, QueryState::kDone);
  EXPECT_EQ(wait_done(service, sd).state, QueryState::kDone);
  EXPECT_EQ(registry.counter("dp.service.shed").value(), 1u);
}

TEST(WarmBudgetLedger, TracksShareAndGlobalUsage) {
  WarmBudgetLedger ledger(/*total_bytes=*/100, /*shards=*/2);
  EXPECT_EQ(ledger.total(), 100u);
  EXPECT_EQ(ledger.share(), 50u);
  EXPECT_FALSE(ledger.over_budget());

  // A hot shard past its share does not trip the budget while the global
  // total holds -- that headroom is the cross-shard rebalance.
  ledger.publish(0, 80);
  EXPECT_EQ(ledger.usage(0), 80u);
  EXPECT_FALSE(ledger.over_budget());

  ledger.publish(1, 30);
  EXPECT_EQ(ledger.global_usage(), 110u);
  EXPECT_TRUE(ledger.over_budget());

  ledger.publish(0, 40);
  EXPECT_FALSE(ledger.over_budget());

  WarmBudgetLedger unlimited(/*total_bytes=*/0, /*shards=*/4);
  unlimited.publish(2, 1ull << 40);
  EXPECT_FALSE(unlimited.over_budget());
}

TEST(WarmBudgetLedger, HotShardCoolsOnlyPastGlobalBudgetAndOwnShare) {
  obs::MetricsRegistry registry;
  // Two shard managers on one 1-byte global budget: any warm session
  // overruns it, so each shard cools down to its spared MRU session.
  auto ledger = std::make_shared<WarmBudgetLedger>(/*total_bytes=*/1,
                                                   /*shards=*/2);
  SessionManager hot(/*max_warm=*/8, ledger, /*shard_index=*/0,
                     ReplayOptions{}, registry);
  SessionManager idle(/*max_warm=*/8, ledger, /*shard_index=*/1,
                      ReplayOptions{}, registry);

  std::string error;
  std::shared_ptr<WarmSession> a = hot.get_scenario("sdn1", error);
  ASSERT_NE(a, nullptr) << error;
  std::shared_ptr<WarmSession> b = hot.get_scenario("sdn2", error);
  ASSERT_NE(b, nullptr) << error;
  std::shared_ptr<WarmSession> c = idle.get_scenario("sdn3", error);
  ASSERT_NE(c, nullptr) << error;
  for (const auto& session : {a, b, c}) {
    std::lock_guard<std::mutex> lock(session->mutex());
    session->ensure_warm();
  }

  hot.enforce_budget();
  idle.enforce_budget();
  {
    std::lock_guard<std::mutex> lock(a->mutex());
    EXPECT_FALSE(a->is_warm()) << "the hot shard's LRU session must cool";
  }
  for (const auto& session : {b, c}) {
    std::lock_guard<std::mutex> lock(session->mutex());
    EXPECT_TRUE(session->is_warm()) << "each shard spares its MRU session";
  }
  // The resident-bytes gauge reflects the *global* ledger: both shards'
  // surviving sessions.
  EXPECT_EQ(registry.gauge("dp.service.session.resident_bytes").value(),
            static_cast<std::int64_t>(hot.warm_bytes() + idle.warm_bytes()));

  // With a generous global budget the hot shard may keep everything, even
  // though two warm graphs exceed total/shards: the idle shard's unused
  // share is borrowed, not fenced off.
  obs::MetricsRegistry registry2;
  auto roomy = std::make_shared<WarmBudgetLedger>(/*total_bytes=*/1ull << 30,
                                                  /*shards=*/2);
  SessionManager borrow(/*max_warm=*/8, roomy, /*shard_index=*/0,
                        ReplayOptions{}, registry2);
  std::shared_ptr<WarmSession> d = borrow.get_scenario("sdn1", error);
  ASSERT_NE(d, nullptr) << error;
  std::shared_ptr<WarmSession> e = borrow.get_scenario("sdn2", error);
  ASSERT_NE(e, nullptr) << error;
  for (const auto& session : {d, e}) {
    std::lock_guard<std::mutex> lock(session->mutex());
    session->ensure_warm();
  }
  borrow.enforce_budget();
  for (const auto& session : {d, e}) {
    std::lock_guard<std::mutex> lock(session->mutex());
    EXPECT_TRUE(session->is_warm());
  }
}

TEST(ShardedServiceConcurrency, ShutdownRacesWithSubmittersSafely) {
  obs::MetricsRegistry registry;
  ServiceConfig config;
  config.shards = 4;
  config.workers = 1;
  config.metrics = &registry;
  auto service = std::make_unique<DiagnosisService>(config);

  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      Query query;
      query.scenario = "sdn" + std::to_string(1 + (t % 4));
      while (!stop.load(std::memory_order_relaxed)) {
        const SubmitOutcome s = service->submit(query);
        if (!s.ok()) break;  // shutdown closed admissions: expected
        if (!service->wait(s.id)) break;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  service->shutdown(/*drain=*/true);
  stop.store(true);
  for (auto& thread : submitters) thread.join();
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted,
            stats.completed + stats.cancelled + stats.shed);
}

}  // namespace
}  // namespace dp::service
