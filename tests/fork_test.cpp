// Tests for UpdateTree's fork points (Engine::fork, LogReplayProvider): a
// replay forked from a snapshot of a provider's first replay must be event
// for event the tail of the replay from t=0 it replaces. Every check below
// compares a forked run with replay() of the same log, Δ and horizon: the
// provenance graph vertex for vertex, every table as of the times DiffProv
// reads, and the engine's event counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "diffprov/diffprov.h"
#include "dns/dns.h"
#include "mapred/scenario.h"
#include "ndlog/parser.h"
#include "obs/metrics.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"
#include "service/diagnose.h"
#include "util/rng.h"

namespace dp {
namespace {

// ----------------------------------------------------------- comparisons --

const Engine& engine_of(const BadRun& run) {
  return dynamic_cast<const EngineStateView&>(*run.state).engine();
}

/// The first vertex at which `a` and `b` differ, described; empty if none.
std::string graph_mismatch(const ProvenanceGraph& a, const ProvenanceGraph& b) {
  if (a.size() != b.size()) {
    return "sizes " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
  }
  for (VertexId v = 0; v < a.size(); ++v) {
    const Vertex x = a.vertex(v);
    const Vertex y = b.vertex(v);
    if (x.kind != y.kind || x.tuple_ref != y.tuple_ref ||
        x.rule_ref != y.rule_ref || x.time != y.time ||
        x.interval.start != y.interval.start ||
        x.interval.end != y.interval.end || x.children != y.children ||
        x.trigger_index != y.trigger_index) {
      return "vertex " + std::to_string(v) + ": " + x.label() + " vs " +
             y.label();
    }
  }
  return "";
}

/// Every table of every node as of `at` (Table::for_each_at), in order.
std::vector<Tuple> tables_at(const Engine& engine, LogicalTime at) {
  std::vector<Tuple> out;
  for (const NodeName& node : engine.nodes()) {
    for (const auto& [name, decl] : engine.program().tables()) {
      const Table* table = engine.find_table(node, name);
      if (table == nullptr) continue;
      table->for_each_at(at, [&out](const Tuple& t) { out.push_back(t); });
    }
  }
  return out;
}

void expect_same_stats(const Engine::Stats& a, const Engine::Stats& b) {
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.base_inserts, b.base_inserts);
  EXPECT_EQ(a.base_deletes, b.base_deletes);
  EXPECT_EQ(a.derivations, b.derivations);
  EXPECT_EQ(a.underivations, b.underivations);
  EXPECT_EQ(a.remote_messages, b.remote_messages);
  EXPECT_EQ(a.index_probes, b.index_probes);
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  EXPECT_EQ(a.tuples_matched, b.tuples_matched);
}

/// Checks `run` against the replay from t=0 it stands for: the graph vertex
/// for vertex; every table at each op's time + 1 (where a round's t_check
/// lies), at each horizon tuple's first appearance (the root) and at the
/// end; and the event counts. Returns the fresh run's event count.
std::uint64_t expect_same_as_fresh(const BadRun& run, const Program& program,
                                   const Topology& topology,
                                   const EventLog& log, const Delta& delta,
                                   const std::vector<Tuple>& horizon,
                                   const ReplayOptions& options = {}) {
  const ReplayResult fresh =
      replay(program, topology, log, delta, options, horizon);
  EXPECT_EQ(graph_mismatch(*run.graph, fresh.graph()), "");
  const Engine& engine = engine_of(run);
  expect_same_stats(engine.stats(), fresh.engine->stats());
  EXPECT_EQ(engine.now(), fresh.engine->now());
  const std::uint64_t total = fresh.engine->stats().events_processed;
  if (run.forked) {
    EXPECT_LT(run.events_processed, total);
  } else {
    EXPECT_EQ(run.events_processed, total);
  }
  std::set<LogicalTime> times = {fresh.engine->now()};
  for (const DeltaOp& op : delta) times.insert(op.at + 1);
  for (const Tuple& tuple : horizon) {
    if (const auto exist = fresh.graph().first_exist(tuple)) {
      times.insert(fresh.graph().time_of(*exist));
    }
  }
  for (const LogicalTime at : times) {
    EXPECT_EQ(tables_at(engine, at), tables_at(*fresh.engine, at))
        << "tables at t=" << at;
  }
  return total;
}

/// A forking provider whose every replay is checked against the replay
/// from t=0 it stands for.
class CheckedProvider final : public ReplayProvider {
 public:
  CheckedProvider(const Program& program, const Topology& topology,
                  const EventLog& log, ForkCadence cadence,
                  const ReplayOptions& options = {})
      : program_(program),
        topology_(topology),
        log_(log),
        options_(options),
        inner_(program, topology, log, options, cadence) {}

  BadRun replay_bad(const Delta& delta) override {
    return replay_bad_to(delta, {});
  }
  BadRun replay_bad_to(const Delta& delta,
                       const std::vector<Tuple>& horizon) override {
    BadRun run = inner_.replay_bad_to(delta, horizon);
    fresh_events += expect_same_as_fresh(run, program_, topology_, log_,
                                         delta, horizon, options_);
    replayed_events += run.events_processed;
    ++replays;
    if (run.forked) ++forks;
    return run;
  }

  int replays = 0;
  int forks = 0;
  std::uint64_t replayed_events = 0;  // what the runs executed
  std::uint64_t fresh_events = 0;     // what replays from t=0 execute

 private:
  const Program& program_;
  const Topology& topology_;
  const EventLog& log_;
  ReplayOptions options_;
  LogReplayProvider inner_;
};

/// The cold pipeline with an explicit reference (service::diagnose_problem)
/// over a checked provider: the initial replay takes the fork points and
/// every UpdateTree replay may fork; a successful Δ is then re-checked by
/// delta_aligns (and minimize_delta when it has several changes).
DiffProvResult diagnose_checked(CheckedProvider& provider,
                                const Program& program, const Tuple& good,
                                const Tuple& bad) {
  BadRun run = provider.replay_bad_to({}, {good, bad});
  const auto good_tree = locate_tree(*run.graph, good);
  EXPECT_TRUE(good_tree.has_value());
  if (!good_tree) return {};
  DiffProv diffprov(program, provider);
  DiffProvResult result = diffprov.diagnose(*good_tree, bad, std::move(run));
  if (result.ok() && result.bad_seed) {
    EXPECT_TRUE(diffprov.delta_aligns(*good_tree, result.delta,
                                      result.repairs, *result.bad_seed));
    if (result.changes.size() > 1) {
      EXPECT_TRUE(diffprov.minimize_delta(*good_tree, result).ok());
    }
  }
  return result;
}

// ---------------------------------------------------------------- inputs --

/// A problem to replay: program, topology, log and the two queried events.
struct Problem {
  std::string name;
  Program program;
  Topology topology;
  EventLog log;
  Tuple good_event;
  Tuple bad_event;
};

/// `s` with `background` packets placed as perfbench's cold inputs place
/// them.
Problem sdn_problem(sdn::Scenario s, std::size_t background) {
  sdn::generate_straddling_trace(background, 1, s.log);
  return {s.name, std::move(s.program), std::move(s.topology),
          std::move(s.log), s.good_event, s.bad_event};
}

Problem dns_problem(dns::Scenario s) {
  return {s.name, std::move(s.program), std::move(s.topology),
          std::move(s.log), s.good_event, s.bad_event};
}

std::string param_name(std::string name) {
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

// --------------------------------------------------------------- engine --

constexpr std::string_view kAnswerProgram = R"(
  table query(2) base immutable event.     // (@R, Id)
  table upstream(2) base mutable keys(0).  // (@R, Server)
  table answer(3) derived event.           // (@R, Id, Server)
  table asked(2) derived.                  // (@R, Server)
  rule a1 answer(@R, Id, Server) :- query(@R, Id), upstream(@R, Server).
  rule a2 asked(@R, Server) :- answer(@R, Id, Server), upstream(@R, Server).
)";

void schedule_answers(Engine& engine) {
  engine.schedule_insert(Tuple("upstream", {"r1", "srvA"}), 0);
  engine.schedule_insert(Tuple("upstream", {"r2", "srvB"}), 0);
  for (int i = 0; i < 12; ++i) {
    engine.schedule_insert(Tuple("query", {i % 2 == 0 ? "r1" : "r2", i}),
                           10 + 5 * (i / 3));
  }
  engine.schedule_insert(Tuple("upstream", {"r1", "srvC"}), 22);
  engine.schedule_delete(Tuple("upstream", {"r2", "srvB"}), 27);
}

TEST(EngineFork, EveryPauseForksTheSameTail) {
  Engine full(parse_program(kAnswerProgram));
  schedule_answers(full);
  full.run();

  Engine paused(parse_program(kAnswerProgram));
  schedule_answers(paused);
  std::vector<std::unique_ptr<Engine>> forks;
  std::vector<LogicalTime> pause_times;
  paused.run({}, RunPauses{3, [&] {
                             // A pause sits at a time-step boundary.
                             pause_times.push_back(paused.now());
                             forks.push_back(paused.fork());
                           }});
  ASSERT_GE(forks.size(), 3u);
  EXPECT_TRUE(std::is_sorted(pause_times.begin(), pause_times.end()));
  expect_same_stats(paused.stats(), full.stats());
  for (const auto& fork : forks) {
    fork->run();
    expect_same_stats(fork->stats(), full.stats());
    EXPECT_EQ(fork->now(), full.now());
    for (const LogicalTime at : {10, 20, 25, 30, 40}) {
      EXPECT_EQ(tables_at(*fork, at), tables_at(full, at)) << "t=" << at;
    }
    EXPECT_EQ(fork->support_entries(), full.support_entries());
  }
}

TEST(EngineFork, AForkPublishesOnlyTheEventsItProcesses) {
  obs::MetricsRegistry registry;
  EngineConfig config;
  config.metrics = &registry;
  Engine engine(parse_program(kAnswerProgram), config);
  schedule_answers(engine);
  engine.run_until(15);
  const std::uint64_t before = engine.stats().events_processed;
  ASSERT_EQ(registry.counter("dp.runtime.events_processed").value(), before);
  const std::unique_ptr<Engine> fork = engine.fork();
  fork->run();
  const std::uint64_t tail = fork->stats().events_processed - before;
  ASSERT_GT(tail, 0u);
  EXPECT_EQ(registry.counter("dp.runtime.events_processed").value(),
            before + tail);
  // The original, untouched by its fork, still runs the same tail.
  engine.run();
  EXPECT_EQ(engine.stats().events_processed, fork->stats().events_processed);
}

TEST(EngineFork, AMidLogForkFedTheRestMatchesBatchReplay) {
  // Section 4.8's checkpoint is a fork. An engine fed the first half of
  // SDN2's log and advanced to just before the next record's time is forked
  // with a copy of its recorder, as LogReplayProvider::fork_from copies a
  // point; records it still has queued travel with the fork. Fed the rest
  // of the log and run, the fork must hold batch replay's state in every
  // table -- base, derived and event-derived -- and its graph.
  const sdn::Scenario sdn2 = sdn::sdn2();
  std::vector<LogRecord> records = sdn2.log.records();
  std::stable_sort(
      records.begin(), records.end(),
      [](const LogRecord& a, const LogRecord& b) { return a.time < b.time; });
  const std::size_t half = records.size() / 2;
  const LogicalTime cut = records[half].time - 1;

  Engine engine(sdn2.program);
  for (const Topology::Link& link : sdn2.topology.links) {
    engine.add_link(link.a, link.b, link.delay);
  }
  ProvenanceRecorder recorder;
  engine.add_observer(&recorder);
  for (std::size_t i = 0; i < half; ++i) schedule_record(engine, records[i]);
  engine.run_until(cut);

  const std::unique_ptr<Engine> fork = engine.fork();
  ProvenanceRecorder fork_recorder(recorder);
  fork->add_observer(&fork_recorder);
  for (std::size_t i = half; i < records.size(); ++i) {
    schedule_record(*fork, records[i]);
  }
  fork->run();

  const ReplayResult batch = replay(sdn2.program, sdn2.topology, sdn2.log);
  const LogicalTime end = batch.engine->now();
  ASSERT_NE(tables_at(engine, end), tables_at(*batch.engine, end))
      << "the second half must change the state, or the fork is not fed";
  EXPECT_EQ(graph_mismatch(fork_recorder.graph(), batch.graph()), "");
  expect_same_stats(fork->stats(), batch.engine->stats());
  EXPECT_EQ(fork->now(), end);
  for (const auto& [name, decl] : sdn2.program.tables()) {
    EXPECT_EQ(fork->live_tuples(name), batch.engine->live_tuples(name))
        << name;
  }
  std::set<LogicalTime> times = {cut, end};
  for (const LogRecord& record : records) times.insert(record.time);
  for (const LogicalTime at : times) {
    EXPECT_EQ(tables_at(*fork, at), tables_at(*batch.engine, at))
        << "tables at t=" << at;
  }
}

// ---------------------------------------------------------- real replays --

class SdnFork : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SdnFork, UpdateTreeAndAlignmentReplaysMatchFreshReplays) {
  // perfbench's placement at 2/5 of its packets (~11k events to the
  // horizon), with points every 2048 events so that several rotate.
  Problem p = sdn_problem(std::move(sdn::all_scenarios()[GetParam()]), 2000);
  CheckedProvider provider(p.program, p.topology, p.log,
                           ForkCadence{2048, kForkPointsKept});
  const DiffProvResult result =
      diagnose_checked(provider, p.program, p.good_event, p.bad_event);
  ASSERT_TRUE(result.ok()) << p.name << ": " << result.to_string();
  // Every round forks (SDN4's two rounds from the same point); the
  // alignment replays fork too.
  EXPECT_GE(provider.forks, result.rounds + 1) << p.name;
  if (p.name != "SDN4") {
    // Initial plus UpdateTree events fall by at least a third.
    EXPECT_LE(3 * provider.replayed_events, 2 * provider.fresh_events)
        << p.name << ": " << provider.replayed_events << " of "
        << provider.fresh_events;
  }
}

TEST(ForkedDiagnosis, TheFullScanEvaluatorForksAlike) {
  // The oracle evaluator has no compiled plans to copy; its forks still
  // replay the same tail.
  ReplayOptions options;
  options.engine_config.use_join_plans = false;
  for (sdn::Scenario& s : sdn::all_scenarios()) {
    Problem p = sdn_problem(std::move(s), 100);
    CheckedProvider provider(p.program, p.topology, p.log,
                             ForkCadence{32, 2}, options);
    const DiffProvResult result =
        diagnose_checked(provider, p.program, p.good_event, p.bad_event);
    EXPECT_TRUE(result.ok()) << p.name;
    EXPECT_GE(provider.forks, 1) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SdnFork,
                         ::testing::Range<std::size_t>(0, 4),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "SDN" + std::to_string(info.param + 1);
                         });

TEST(ForkedDiagnosis, ColdSdnDiagnosisReportsItsForkedReplay) {
  // perfbench's cold input at the pipeline's default cadence: the initial
  // replay runs ~25k events, so it takes points without being forced to.
  for (sdn::Scenario& s : sdn::all_scenarios()) {
    if (s.name == "SDN4") continue;
    Problem p = sdn_problem(std::move(s), 5000);
    service::Problem problem{p.program, p.topology, p.log, p.good_event,
                             p.bad_event};
    service::DiagnoseSpec spec;
    spec.good_event = p.good_event;
    spec.bad_event = p.bad_event;
    obs::MetricsRegistry registry;
    ReplayOptions options;
    options.engine_config.metrics = &registry;
    const service::DiagnoseOutcome outcome =
        service::diagnose_problem(problem, spec, options);
    ASSERT_TRUE(outcome.ok()) << p.name;
    EXPECT_EQ(outcome.profile.timing.forked_replays, 1) << p.name;
    EXPECT_GT(outcome.profile.fork_copy_us, 0.0) << p.name;
    // The profile and the engines' shared registry count the same events:
    // a fork's, not the prefix it copied.
    EXPECT_EQ(outcome.profile.replayed_events,
              registry.counter("dp.runtime.events_processed").value())
        << p.name;
  }
}

class MrFork
    : public ::testing::TestWithParam<std::tuple<bool, std::uint64_t>> {};

TEST_P(MrFork, UpdateTreeReplaysMatchFreshReplays) {
  // MR-D's aggregate contribution chains, at a small corpus with forced
  // points; the second round applies Δ at t=11, before every point.
  const auto [mr2, seed] = GetParam();
  mapred::CorpusConfig corpus;
  corpus.files = 8;
  corpus.lines_per_file = 24;
  corpus.seed = seed;
  const mapred::Scenario s = mr2 ? mapred::mr2_declarative(corpus)
                                 : mapred::mr1_declarative(corpus);
  const Topology topology;
  const EventLog good_log =
      mapred::declarative_job_log(s.store, s.good_config);
  const EventLog bad_log = mapred::declarative_job_log(s.store, s.bad_config);
  const ReplayResult good_run =
      replay(s.model, topology, good_log, {}, {}, {s.good_event});
  const auto good_tree = locate_tree(good_run.graph(), s.good_event);
  ASSERT_TRUE(good_tree.has_value());

  CheckedProvider provider(s.model, topology, bad_log, ForkCadence{512, 2});
  BadRun run = provider.replay_bad_to({}, {s.bad_event});
  ASSERT_EQ(provider.forks, 0);
  ASSERT_EQ(provider.replays, 1);
  DiffProv diffprov(s.model, provider);
  const DiffProvResult result =
      diffprov.diagnose(*good_tree, s.bad_event, std::move(run));
  // The same answer mapred::diagnose gives (it takes default points).
  EXPECT_EQ(result.to_string(), mapred::diagnose(s).result.to_string());
  EXPECT_GE(result.timing.replays, 1);
  EXPECT_GE(provider.forks, 1) << s.name << " seed " << seed;
  ASSERT_TRUE(result.ok() && result.bad_seed) << result.to_string();
  EXPECT_TRUE(diffprov.delta_aligns(*good_tree, result.delta, result.repairs,
                                    *result.bad_seed));
}

INSTANTIATE_TEST_SUITE_P(
    CorpusSeeds, MrFork,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values<std::uint64_t>(1, 1010, 4242)),
    [](const ::testing::TestParamInfo<std::tuple<bool, std::uint64_t>>& info) {
      return std::string(std::get<0>(info.param) ? "MR2_D" : "MR1_D") +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

class DnsFork : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DnsFork, ReplaysMatchFreshReplaysAtEveryCadence) {
  // A DNS replay runs ~10 events.
  for (const std::uint64_t every : {1u, 2u, 3u}) {
    Problem p = dns_problem(std::move(dns::all_scenarios()[GetParam()]));
    CheckedProvider provider(p.program, p.topology, p.log,
                             ForkCadence{every, 50});
    const DiffProvResult result =
        diagnose_checked(provider, p.program, p.good_event, p.bad_event);
    EXPECT_TRUE(result.ok()) << p.name << " every " << every;
    EXPECT_GE(provider.forks, 1) << p.name << " every " << every;
  }
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, DnsFork,
                         ::testing::Range<std::size_t>(0, 2),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return param_name(
                               dns::all_scenarios()[info.param].name);
                         });

// ---------------------------------------------------- random cut property --

/// Mutable base tuples of the log, and those live at a point.
std::vector<Tuple> mutable_base_tuples(const Program& program,
                                       const EventLog& log) {
  std::vector<Tuple> out;
  for (const LogRecord& record : log.records()) {
    const TableDecl& decl = program.table(record.tuple().table());
    if (decl.kind == TupleKind::kBase &&
        decl.mutability == Mutability::kMutable && !decl.is_event()) {
      out.push_back(record.tuple());
    }
  }
  return out;
}

std::vector<Tuple> live_mutable_tuples(const Engine& engine) {
  std::vector<Tuple> out;
  for (const auto& [name, decl] : engine.program().tables()) {
    if (decl.kind != TupleKind::kBase ||
        decl.mutability != Mutability::kMutable || decl.is_event()) {
      continue;
    }
    for (Tuple& t : engine.live_tuples(name)) out.push_back(std::move(t));
  }
  return out;
}

/// `tuple` with one integer field (past the location) moved by ±1, or
/// unchanged when it has none.
Tuple perturbed(const Tuple& tuple, Rng& rng) {
  std::vector<std::size_t> ints;
  for (std::size_t i = 1; i < tuple.arity(); ++i) {
    if (tuple.at(i).is_int()) ints.push_back(i);
  }
  if (ints.empty()) return tuple;
  const std::size_t field = ints[rng.next_below(ints.size())];
  return tuple.with_field(
      field, Value(tuple.at(field).as_int() + (rng.next_bool(0.5) ? 1 : -1)));
}

/// The fork the provider should take: some point before `at` at which no
/// horizon tuple has appeared.
bool fork_expected(const LogReplayProvider& provider, LogicalTime at,
                   const std::vector<Tuple>& horizon) {
  for (const LogReplayProvider::ForkPoint& point : provider.fork_points()) {
    if (point.engine->now() >= at) continue;
    const ProvenanceGraph& graph = point.recorder->graph();
    if (std::all_of(horizon.begin(), horizon.end(), [&](const Tuple& t) {
          return graph.exists_of(t).empty();
        })) {
      return true;
    }
  }
  return false;
}

void random_cuts(const Problem& p, std::uint64_t seed, int trials,
                 std::int64_t max_every) {
  Rng rng(seed);
  const ForkCadence cadence{
      static_cast<std::uint64_t>(rng.next_in(1, max_every)), 50};
  LogReplayProvider provider(p.program, p.topology, p.log, {}, cadence);
  (void)provider.replay_bad_to({}, {p.good_event, p.bad_event});
  const auto& points = provider.fork_points();
  ASSERT_GE(points.size(), 2u) << p.name;
  const std::vector<Tuple> logged = mutable_base_tuples(p.program, p.log);
  ASSERT_FALSE(logged.empty());
  for (int trial = 0; trial < trials; ++trial) {
    const auto& point = points[rng.next_below(points.size())];
    const LogicalTime at = point.engine->now() + rng.next_in(1, 150);
    DeltaOp op;
    op.at = at;
    const std::vector<Tuple> live = live_mutable_tuples(*point.engine);
    if (!live.empty() && rng.next_bool(0.5)) {
      op.kind = DeltaOp::Kind::kDelete;
      op.tuple = live[rng.next_below(live.size())];
    } else {
      op.tuple = perturbed(logged[rng.next_below(logged.size())], rng);
    }
    std::vector<Tuple> horizon;
    if (rng.next_bool(0.5)) horizon.push_back(p.bad_event);
    const Delta delta = {op};
    SCOPED_TRACE(p.name + " trial " + std::to_string(trial) + ": " +
                 op.to_string() + (horizon.empty() ? "" : " to the horizon"));
    const BadRun run = provider.replay_bad_to(delta, horizon);
    EXPECT_EQ(run.forked, fork_expected(provider, at, horizon));
    expect_same_as_fresh(run, p.program, p.topology, p.log, delta, horizon);
  }
}

TEST(ForkProperty, RandomCutsMatchFreshReplays) {
  random_cuts(sdn_problem(sdn::sdn1(), 200), 7, 24, 64);
  random_cuts(sdn_problem(sdn::sdn2(), 200), 8, 12, 64);
  // A DNS replay runs 9 events.
  random_cuts(dns_problem(dns::stale_record()), 9, 24, 2);
}

// ------------------------------------------------------------ edge cases --

TEST(ForkPoints, DeltaAtOrBeforeEveryPointReplaysFromZero) {
  Problem p = sdn_problem(sdn::sdn1(), 200);
  LogReplayProvider provider(p.program, p.topology, p.log, {},
                             ForkCadence{64, 50});
  (void)provider.replay_bad_to({}, {p.good_event, p.bad_event});
  ASSERT_FALSE(provider.fork_points().empty());
  const LogicalTime first = provider.fork_points().front().engine->now();
  const std::vector<Tuple> mutables = mutable_base_tuples(p.program, p.log);
  for (const LogicalTime at : {LogicalTime{0}, first - 1, first}) {
    const Delta delta = {{DeltaOp::Kind::kInsert, mutables.front(), at}};
    const BadRun run = provider.replay_bad_to(delta, {p.bad_event});
    EXPECT_FALSE(run.forked) << "at " << at;
    expect_same_as_fresh(run, p.program, p.topology, p.log, delta,
                         {p.bad_event});
  }
}

TEST(ForkPoints, AHorizonThatAppearedBeforeDeltaForksFromAnEarlierPoint) {
  // SDN3's reference packet appears long before the bad one. A replay to it
  // with Δ after the last point stops before Δ applies; only a point from
  // before the packet appeared continues that way.
  Problem p = sdn_problem(sdn::sdn3(), 200);
  LogReplayProvider provider(p.program, p.topology, p.log, {},
                             ForkCadence{8, 100});
  (void)provider.replay_bad_to({}, {p.good_event, p.bad_event});
  const auto& points = provider.fork_points();
  const auto appeared = [&](const LogReplayProvider::ForkPoint& point) {
    return !point.recorder->graph().exists_of(p.good_event).empty();
  };
  ASSERT_FALSE(appeared(points.front()));
  ASSERT_TRUE(appeared(points.back()));
  const LogicalTime late = points.back().engine->now() + 1;
  const Delta delta = {
      {DeltaOp::Kind::kInsert, mutable_base_tuples(p.program, p.log).front(),
       late}};
  const BadRun run = provider.replay_bad_to(delta, {p.good_event});
  EXPECT_TRUE(run.forked);
  const std::uint64_t total = expect_same_as_fresh(
      run, p.program, p.topology, p.log, delta, {p.good_event});
  // The run stopped at the packet, before Δ and before the last point.
  EXPECT_LT(total, points.back().engine->stats().events_processed);
}

TEST(ForkPoints, ADeleteRetractsDerivedSupport) {
  // SDN1's policy routes compile into flow entries; deleting one after a
  // point underives what it supported, in the fork as from t=0.
  Problem p = sdn_problem(sdn::sdn1(), 200);
  LogReplayProvider provider(p.program, p.topology, p.log, {},
                             ForkCadence{64, 50});
  (void)provider.replay_bad_to({}, {p.good_event, p.bad_event});
  const auto& point = provider.fork_points().back();
  const std::uint64_t underived = point.engine->stats().underivations;
  Tuple route;
  for (const Tuple& t : point.engine->live_tuples("policyRoute")) route = t;
  ASSERT_FALSE(route.table().empty());
  const Delta delta = {
      {DeltaOp::Kind::kDelete, route, point.engine->now() + 1}};
  const BadRun run = provider.replay_bad(delta);
  EXPECT_TRUE(run.forked);
  expect_same_as_fresh(run, p.program, p.topology, p.log, delta, {});
  EXPECT_GT(engine_of(run).stats().underivations, underived);
}

TEST(ForkPoints, TwoForksFromOnePointLeaveItUnchanged) {
  Problem p = dns_problem(dns::stale_record());
  LogReplayProvider provider(p.program, p.topology, p.log, {},
                             ForkCadence{4, 1});
  (void)provider.replay_bad_to({}, {p.good_event, p.bad_event});
  ASSERT_EQ(provider.fork_points().size(), 1u);
  const LogReplayProvider::ForkPoint point = provider.fork_points().front();
  const Engine& engine = *point.engine;
  const Engine::Stats stats = engine.stats();
  const LogicalTime now = engine.now();
  const std::size_t vertices = point.recorder->graph().size();
  const std::vector<Tuple> tables = tables_at(engine, now);

  const std::vector<Tuple> mutables = mutable_base_tuples(p.program, p.log);
  const Delta first = {{DeltaOp::Kind::kInsert, mutables.front(), now + 1}};
  const Delta second = {{DeltaOp::Kind::kInsert, mutables.back(), now + 3}};
  for (const Delta* delta : {&first, &second, &first}) {
    const BadRun run = provider.replay_bad(*delta);
    EXPECT_TRUE(run.forked);
    expect_same_as_fresh(run, p.program, p.topology, p.log, *delta, {});
  }
  ASSERT_EQ(provider.fork_points().size(), 1u);
  EXPECT_EQ(provider.fork_points().front().engine, point.engine);
  expect_same_stats(engine.stats(), stats);
  EXPECT_EQ(engine.now(), now);
  EXPECT_EQ(point.recorder->graph().size(), vertices);
  EXPECT_EQ(tables_at(engine, now), tables);
}

TEST(ForkPoints, OnlyABoundedDeltaFreeFirstReplayTakesPoints) {
  Problem p = dns_problem(dns::stale_record());
  const ForkCadence cadence{2, 50};
  {
    // A full first replay (auto-reference, --show-tree, --dot) takes none,
    // and no later replay takes any either.
    LogReplayProvider provider(p.program, p.topology, p.log, {}, cadence);
    (void)provider.replay_bad({});
    (void)provider.replay_bad_to({}, {p.bad_event});
    EXPECT_TRUE(provider.fork_points().empty());
  }
  {
    // A first replay with Δ (a warm session's UpdateTree) takes none.
    LogReplayProvider provider(p.program, p.topology, p.log, {}, cadence);
    const Delta delta = {{DeltaOp::Kind::kInsert,
                          mutable_base_tuples(p.program, p.log).front(), 5}};
    (void)provider.replay_bad_to(delta, {p.bad_event});
    EXPECT_TRUE(provider.fork_points().empty());
  }
  {
    LogReplayProvider provider(p.program, p.topology, p.log, {}, cadence);
    const BadRun run = provider.replay_bad_to({}, {p.bad_event});
    EXPECT_FALSE(run.forked);
    EXPECT_FALSE(provider.fork_points().empty());
    EXPECT_LE(provider.fork_points().size(), 50u);
  }
}

TEST(ForkPoints, TheLatestPointsAreKept) {
  Problem p = sdn_problem(sdn::sdn1(), 200);
  LogReplayProvider all(p.program, p.topology, p.log, {},
                        ForkCadence{64, 1000});
  LogReplayProvider two(p.program, p.topology, p.log, {}, ForkCadence{64, 2});
  (void)all.replay_bad_to({}, {p.bad_event});
  (void)two.replay_bad_to({}, {p.bad_event});
  ASSERT_GT(all.fork_points().size(), 2u);
  ASSERT_EQ(two.fork_points().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& kept = two.fork_points()[i];
    const auto& same = all.fork_points()[all.fork_points().size() - 2 + i];
    EXPECT_EQ(kept.engine->now(), same.engine->now());
    EXPECT_EQ(kept.engine->stats().events_processed,
              same.engine->stats().events_processed);
  }
  // Consecutive points are at least the cadence apart.
  for (std::size_t i = 1; i < all.fork_points().size(); ++i) {
    EXPECT_GE(all.fork_points()[i].engine->stats().events_processed,
              all.fork_points()[i - 1].engine->stats().events_processed + 64);
  }
}

}  // namespace
}  // namespace dp
