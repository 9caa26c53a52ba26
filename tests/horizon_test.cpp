// Tests for stopping a replay at its query's horizon: the engine's stop rule,
// and the reads DiffProv makes, which must answer the same on a run stopped
// once the queried tuples have appeared as on a run to quiescence.
#include <gtest/gtest.h>

#include "dns/dns.h"
#include "ndlog/parser.h"
#include "obs/metrics.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"
#include "service/diagnose.h"
#include "util/rng.h"

namespace dp {
namespace {

// Resolvers answer each query from their upstream server. `answer` is an
// event, so a repeated query makes the same answer appear again.
constexpr std::string_view kAnswerProgram = R"(
  table query(2) base immutable event.     // (@R, Id)
  table upstream(2) base mutable keys(0).  // (@R, Server)
  table answer(3) derived event.           // (@R, Id, Server)
  rule a1 answer(@R, Id, Server) :- query(@R, Id), upstream(@R, Server).
)";

Tuple make(const std::string& table, std::vector<Value> values) {
  return Tuple(table, std::move(values));
}

Tuple query(const std::string& resolver, int id) {
  return make("query", {resolver, id});
}

Tuple answer(const std::string& resolver, int id, const std::string& server) {
  return make("answer", {resolver, id, server});
}

/// One upstream, then queries 1 and 2 at t=10, query 3 at t=11 and query 4
/// at t=20; each answer appears one tick after its query.
void schedule_queries(Engine& engine) {
  engine.schedule_insert(make("upstream", {"r1", "srvA"}), 0);
  engine.schedule_insert(query("r1", 1), 10);
  engine.schedule_insert(query("r1", 2), 10);
  engine.schedule_insert(query("r1", 3), 11);
  engine.schedule_insert(query("r1", 4), 20);
}

TEST(Horizon, EngineStopsOnceTheNamedTuplesTimeIsDrained) {
  Engine engine(parse_program(kAnswerProgram));
  schedule_queries(engine);
  engine.run({answer("r1", 1, "srvA")});
  // answer 1 appeared at t=11; every event at t=11 ran (answer 2 and query
  // 3), nothing later did (answer 3 at t=12, query 4 at t=20).
  EXPECT_EQ(engine.now(), 11);
  EXPECT_EQ(engine.stats().events_processed, 6u);
  EXPECT_EQ(engine.stats().derivations, 2u);

  Engine full(parse_program(kAnswerProgram));
  schedule_queries(full);
  full.run();
  EXPECT_EQ(full.stats().events_processed, 9u);
}

TEST(Horizon, EngineWaitsForEveryNamedTuple) {
  Engine engine(parse_program(kAnswerProgram));
  schedule_queries(engine);
  engine.run({answer("r1", 3, "srvA"), answer("r1", 1, "srvA")});
  EXPECT_EQ(engine.now(), 12);
  EXPECT_EQ(engine.stats().events_processed, 7u);
}

TEST(Horizon, ANamedTupleThatNeverAppearsLeavesTheRunFull) {
  Engine engine(parse_program(kAnswerProgram));
  schedule_queries(engine);
  engine.run({answer("r1", 1, "srvA"), answer("r1", 1, "srvB")});
  EXPECT_EQ(engine.stats().events_processed, 9u);
}

TEST(Horizon, ATupleNotYetInTheStoreIsMatchedByValue) {
  // A tuple no run has produced yet has no ref when the run starts; the
  // engine recognizes it when it is first interned.
  const Tuple fresh = answer("r1", 4, "srvFresh");
  ASSERT_EQ(global_store().find(fresh), kNoTupleRef);
  Engine engine(parse_program(kAnswerProgram));
  engine.schedule_insert(make("upstream", {"r1", "srvFresh"}), 0);
  engine.schedule_insert(query("r1", 4), 20);
  engine.schedule_insert(query("r1", 5), 30);
  engine.run({fresh});
  EXPECT_EQ(engine.now(), 21);
  EXPECT_EQ(engine.stats().events_processed, 3u);
}

// ------------------------------------------------------------- diagnoses --

/// A recorded problem and where its queried events sit.
struct Case {
  std::string name;
  Program program;
  Topology topology;
  EventLog log;
  Tuple good_event;
  Tuple bad_event;
  /// The first UpdateTree round's expected root never appears (SDN4), so
  /// that replay runs in full.
  bool rootless_round = false;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (sdn::Scenario& s : sdn::all_scenarios()) {
    out.push_back({s.name, std::move(s.program), std::move(s.topology),
                   std::move(s.log), s.good_event, s.bad_event,
                   s.name == "SDN4"});
  }
  for (dns::Scenario& s : dns::all_scenarios()) {
    out.push_back({s.name, std::move(s.program), std::move(s.topology),
                   std::move(s.log), s.good_event, s.bad_event, false});
  }
  return out;
}

/// The case's log followed by seeded background that starts after the last
/// recorded event (and so after both queried events): packets with fresh
/// ids for the SDN network, queries with fresh ids for DNS.
EventLog with_suffix(const Case& c, std::uint64_t seed) {
  EventLog log = c.log;
  LogicalTime last = 0;
  std::vector<std::string> resolvers;
  for (const LogRecord& r : c.log.records()) {
    last = std::max(last, r.time);
    if (r.tuple().table() == "upstream") {
      resolvers.push_back(r.tuple().location());
    }
  }
  const LogicalTime start = last + 200;
  if (resolvers.empty()) {
    sdn::TraceConfig trace;
    trace.seed = seed;
    trace.max_packets = 200;
    trace.duration_s = 1e6;
    trace.start_time = start;
    trace.first_packet_id = 100000;
    trace.rate_mbps = 200;  // one packet every 20 ticks
    sdn::generate_trace(trace, log);
    return log;
  }
  Rng rng(seed);
  for (int i = 0; i < 100; ++i) {
    const std::string& resolver = resolvers[rng.next_below(resolvers.size())];
    const char* name = rng.next_bool(0.5) ? "www.example.org" : "example.org";
    log.append_insert(
        make("query", {resolver, 100000 + i, name,
                       "c" + std::to_string(1 + rng.next_below(3))}),
        start + 10 * i);
  }
  return log;
}

struct Cold {
  service::DiagnoseOutcome outcome;
  std::uint64_t events = 0;  // dp.runtime.events_processed of every replay
};

/// The CLI's cold path: replay `log`, locate both trees, diagnose.
Cold diagnose_cold(const Case& c, EventLog log) {
  obs::MetricsRegistry registry;
  service::Problem problem{c.program, c.topology, std::move(log),
                           c.good_event, c.bad_event};
  service::DiagnoseSpec spec;
  spec.good_event = c.good_event;
  spec.bad_event = c.bad_event;
  ReplayOptions options;
  options.engine_config.metrics = &registry;
  Cold cold;
  cold.outcome = service::diagnose_problem(problem, spec, options);
  cold.events = registry.counter("dp.runtime.events_processed").value();
  return cold;
}

class HorizonScenario : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HorizonScenario, RecordsAfterTheQueryNeverChangeTheReport) {
  const Case c = std::move(cases()[GetParam()]);
  const Cold plain = diagnose_cold(c, c.log);
  ASSERT_TRUE(plain.outcome.ok()) << c.name << ": " << plain.outcome.out;
  for (const std::uint64_t seed : {1u, 2u}) {
    const EventLog suffixed = with_suffix(c, seed);
    ASSERT_GT(suffixed.size(), c.log.size());
    const Cold cold = diagnose_cold(c, suffixed);
    EXPECT_EQ(cold.outcome.out, plain.outcome.out) << c.name;
    EXPECT_EQ(cold.outcome.profile.rounds, plain.outcome.profile.rounds);
    if (c.rootless_round) {
      // The round whose expected root never appears replays the suffix.
      EXPECT_GT(cold.events, plain.events) << c.name;
      EXPECT_GT(cold.outcome.profile.replayed_events,
                plain.outcome.profile.replayed_events);
    } else {
      // Every replay found its named tuples before the suffix began.
      EXPECT_EQ(cold.events, plain.events) << c.name;
      EXPECT_EQ(cold.outcome.profile.replayed_events,
                plain.outcome.profile.replayed_events);
    }
    EXPECT_EQ(cold.outcome.profile.replayed_events, cold.events);

    // A warm session keeps its run to quiescence; only its UpdateTree
    // replays stop. It answers the same.
    LogReplayProvider provider(c.program, c.topology, suffixed);
    auto warm = std::make_shared<const BadRun>(provider.replay_bad({}));
    service::Problem problem{c.program, c.topology, suffixed, c.good_event,
                             c.bad_event};
    service::DiagnoseSpec spec;
    spec.good_event = c.good_event;
    spec.bad_event = c.bad_event;
    const service::DiagnoseOutcome warm_outcome =
        service::diagnose_problem(problem, spec, {}, warm);
    EXPECT_EQ(warm_outcome.out, plain.outcome.out) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, HorizonScenario,
                         ::testing::Range<std::size_t>(0, 6),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           std::string name = cases()[info.param].name;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(Horizon, ATupleThatAppearsTwiceIsLocatedAtItsFirstAppearance) {
  // r1 asks query 1 twice, at t=200 and t=300, so its answer appears twice.
  // r2's answer is the reference: r1 should ask srvC too.
  Case c;
  c.name = "answers";
  c.program = parse_program(kAnswerProgram);
  c.log.append_insert(make("upstream", {"r1", "srvA"}), 0);
  c.log.append_insert(make("upstream", {"r2", "srvC"}), 0);
  c.log.append_insert(query("r2", 1), 100);
  c.log.append_insert(query("r1", 1), 200);
  c.log.append_insert(query("r1", 1), 300);
  c.good_event = answer("r2", 1, "srvC");
  c.bad_event = answer("r1", 1, "srvA");

  LogReplayProvider provider(c.program, c.topology, c.log);
  const BadRun full = provider.replay_bad({});
  ASSERT_EQ(full.graph->exists_of(c.bad_event).size(), 2u);
  const BadRun stopped = provider.replay_bad_to({}, {c.bad_event});
  EXPECT_LT(stopped.events_processed, full.events_processed);
  for (const BadRun* run : {&full, &stopped}) {
    const auto tree = locate_tree(*run->graph, c.bad_event);
    ASSERT_TRUE(tree.has_value());
    EXPECT_EQ(tree->vertex_of(tree->root()).time, 201);
  }

  // The cold path stops at the horizon, the warm path reads its full run;
  // both diagnose the first appearance.
  const Cold cold = diagnose_cold(c, c.log);
  service::Problem problem{c.program, c.topology, c.log, c.good_event,
                           c.bad_event};
  service::DiagnoseSpec spec;
  spec.good_event = c.good_event;
  spec.bad_event = c.bad_event;
  const service::DiagnoseOutcome warm = service::diagnose_problem(
      problem, spec, {}, std::make_shared<const BadRun>(full));
  ASSERT_TRUE(cold.outcome.ok()) << cold.outcome.out;
  EXPECT_EQ(warm.out, cold.outcome.out);
  EXPECT_NE(cold.outcome.out.find("upstream(@r1, \"srvC\")"),
            std::string::npos)
      << cold.outcome.out;
}

TEST(Horizon, SupportGainedAfterTheRootIsNotPartOfItsTree) {
  // SDN1 with the bad packet sent again at t=1500: its delivery is derived
  // a second time while still alive, and that later support must not join
  // the tree of the first delivery -- on a full run as on a stopped one.
  sdn::Scenario s = sdn::sdn1();
  s.log.append_insert(make("packet", {"sw1", 2, Value(*Ipv4::parse("4.3.3.1")),
                                      Value(*Ipv4::parse("8.8.1.1"))}),
                      1500);
  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun full = provider.replay_bad({});
  const BadRun stopped = provider.replay_bad_to({}, {s.bad_event});
  const auto full_tree = locate_tree(*full.graph, s.bad_event);
  const auto stopped_tree = locate_tree(*stopped.graph, s.bad_event);
  ASSERT_TRUE(full_tree && stopped_tree);
  const LogicalTime root_time = full_tree->vertex_of(full_tree->root()).time;
  ASSERT_LT(root_time, 1500);
  ASSERT_EQ(full_tree->size(), stopped_tree->size());
  for (std::size_t i = 0; i < full_tree->size(); ++i) {
    const auto n = static_cast<ProvTree::NodeIndex>(i);
    const Vertex& a = full_tree->vertex_of(n);
    const Vertex& b = stopped_tree->vertex_of(n);
    EXPECT_LE(a.time, root_time) << a.label();
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.tuple(), b.tuple());
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(full_tree->node(n).parent, stopped_tree->node(n).parent);
  }
  // The late support is in the graph all the same.
  const auto exist = full.graph->first_exist(s.bad_event);
  ASSERT_TRUE(exist.has_value());
  std::size_t supports = 0;
  for (const VertexId appear : full.graph->vertex(*exist).children) {
    supports += full.graph->vertex(appear).children.size();
  }
  EXPECT_EQ(supports, 2u);
}

}  // namespace
}  // namespace dp
