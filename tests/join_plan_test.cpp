// Indexed-plan vs reference-scan engine equivalence, plus unit coverage for
// the pieces the plans are built from.
//
// The compiled-plan evaluator (runtime/plan.h) reorders body atoms, probes
// secondary table indexes, and carries bindings in a flat register file. Its
// one hard requirement is that none of this is observable: for every
// scenario in the repo, event order, live state, stats, and the full
// provenance graph must be *byte-identical* to the reference full-scan
// evaluator. This file drives every SDN, DNS, and MapReduce scenario and the
// same-time-run edge cases through both paths and compares everything, then
// unit-tests index maintenance (lazy build, upsert displacement, delete),
// plan shapes (greedy ordering, probe column sets), slot-compiled expression
// parity, and the support-map regression from the retraction path.
#include <gtest/gtest.h>

#include <cctype>

#include <string>
#include <vector>

#include "dns/dns.h"
#include "mapred/scenario.h"
#include "mapred/wordcount.h"
#include "ndlog/parser.h"
#include "provenance/recorder.h"
#include "replay/event_log.h"
#include "runtime/engine.h"
#include "runtime/plan.h"
#include "sdn/scenario.h"

namespace dp {
namespace {

// ------------------------------------------------- cross-variant harness --

struct ScenarioRun {
  std::string name;
  Program program;
  Topology topology;
  EventLog log;
};

std::vector<ScenarioRun> all_scenario_runs() {
  std::vector<ScenarioRun> out;
  for (sdn::Scenario& s : sdn::all_scenarios()) {
    out.push_back({"sdn_" + s.name, std::move(s.program),
                   std::move(s.topology), std::move(s.log)});
  }
  for (dns::Scenario& s : dns::all_scenarios()) {
    out.push_back({"dns_" + s.name, std::move(s.program),
                   std::move(s.topology), std::move(s.log)});
  }
  for (auto scenario : {mapred::mr1_declarative(), mapred::mr2_declarative()}) {
    out.push_back({"mapred_" + scenario.name, scenario.model, Topology{},
                   mapred::declarative_job_log(scenario.store,
                                               scenario.good_config)});
  }
  return out;
}

struct RunResult {
  Engine::Stats stats;
  std::map<std::string, std::vector<Tuple>> live;
  ProvenanceGraph graph;
  std::size_t support_entries = 0;
};

/// The two execution variants under test. kFullScan is the reference
/// evaluator (the oracle); kRow is the default compiled-plan evaluator.
enum class Variant { kFullScan, kRow };

RunResult run_scenario(const ScenarioRun& scenario, Variant variant) {
  EngineConfig config;
  config.use_join_plans = variant == Variant::kRow;
  Engine engine(Program(scenario.program), config);
  for (const Topology::Link& link : scenario.topology.links) {
    engine.add_link(link.a, link.b, link.delay);
  }
  ProvenanceRecorder recorder;
  engine.add_observer(&recorder);
  for (const LogRecord& r : scenario.log.records()) {
    if (r.op == LogRecord::Op::kInsert) {
      engine.schedule_insert(r.tuple(), r.time);
    } else {
      engine.schedule_delete(r.tuple(), r.time);
    }
  }
  engine.run();
  RunResult result;
  result.stats = engine.stats();
  for (const auto& [table, decl] : engine.program().tables()) {
    result.live[table] = engine.live_tuples(table);
  }
  result.graph = std::move(recorder.graph());
  result.support_entries = engine.support_entries();
  return result;
}

void expect_identical_graphs(const ProvenanceGraph& a,
                             const ProvenanceGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (VertexId id = 0; id < a.size(); ++id) {
    const Vertex& va = a.vertex(id);
    const Vertex& vb = b.vertex(id);
    ASSERT_EQ(va.kind, vb.kind) << "vertex " << id;
    ASSERT_EQ(va.tuple(), vb.tuple()) << "vertex " << id;
    ASSERT_EQ(va.rule(), vb.rule()) << "vertex " << id;
    ASSERT_EQ(va.time, vb.time) << "vertex " << id;
    ASSERT_EQ(va.interval.start, vb.interval.start) << "vertex " << id;
    ASSERT_EQ(va.interval.end, vb.interval.end) << "vertex " << id;
    ASSERT_EQ(va.children, vb.children) << "vertex " << id;
    ASSERT_EQ(va.trigger_index, vb.trigger_index) << "vertex " << id;
  }
}

/// The plan evaluator against the full-scan oracle: identical semantic
/// counters, join matches, support map, live state and provenance graph.
void expect_matches_oracle(const RunResult& planned, const RunResult& scanned) {
  EXPECT_EQ(planned.stats.base_inserts, scanned.stats.base_inserts);
  EXPECT_EQ(planned.stats.base_deletes, scanned.stats.base_deletes);
  EXPECT_EQ(planned.stats.derivations, scanned.stats.derivations);
  EXPECT_EQ(planned.stats.underivations, scanned.stats.underivations);
  EXPECT_EQ(planned.stats.remote_messages, scanned.stats.remote_messages);
  EXPECT_EQ(planned.stats.events_processed, scanned.stats.events_processed);
  EXPECT_EQ(planned.support_entries, scanned.support_entries);

  // The planned engine must never examine more join candidates than the
  // scans did -- that is the whole point of the indexes.
  EXPECT_LE(planned.stats.tuples_scanned, scanned.stats.tuples_scanned);
  EXPECT_EQ(planned.stats.tuples_matched, scanned.stats.tuples_matched);

  for (const auto& [table, tuples] : scanned.live) {
    EXPECT_EQ(planned.live.at(table), tuples) << table;
  }
  expect_identical_graphs(planned.graph, scanned.graph);
}

class JoinPlanCrossVariant : public ::testing::TestWithParam<std::size_t> {};

TEST_P(JoinPlanCrossVariant, IndexedPlansAreByteIdenticalToFullScans) {
  const ScenarioRun scenario =
      std::move(all_scenario_runs()[GetParam()]);
  expect_matches_oracle(run_scenario(scenario, Variant::kRow),
                        run_scenario(scenario, Variant::kFullScan));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, JoinPlanCrossVariant,
    ::testing::Range<std::size_t>(0, 8),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      // gtest parameter names must be alphanumeric; scenario names carry
      // hyphens ("DNS-stale-record").
      std::string name = all_scenario_runs()[info.param].name;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(JoinPlanCrossVariant, ScenarioCountMatchesInstantiation) {
  // Keep the Range above in sync with the scenario inventory.
  EXPECT_EQ(all_scenario_runs().size(), 8u);
}

// ------------------------------------------------------ index maintenance --

TableDecl keyed_decl() {
  TableDecl decl;
  decl.name = "flow";
  decl.arity = 3;                 // (location, key, payload)
  decl.key_columns = {0, 1};
  return decl;
}

Tuple flow(const std::string& node, std::int64_t key, std::int64_t payload) {
  return Tuple("flow", {Value(node), Value(key), Value(payload)});
}

/// Inserts `t` under its global-store ref, as the engine does.
Table::InsertResult insert_interned(Table& table, const Tuple& t,
                                    LogicalTime now) {
  return table.insert(t, now, intern_tuple(t));
}

/// The indexed enumeration must equal filtering a full live scan.
std::vector<Tuple> reference_matches(const Table& table, std::size_t col,
                                     const Value& v) {
  std::vector<Tuple> out;
  table.for_each_live([&](const Table::Row& row) {
    if (row.tuple.at(col) == v) out.push_back(row.tuple);
  });
  return out;
}

std::vector<Tuple> indexed_matches(const Table& table, std::size_t col,
                                   const Value& v) {
  std::vector<Tuple> out;
  table.for_each_live_matching(
      {col}, {v}, [&](const Table::Row& row) { out.push_back(row.tuple); });
  return out;
}

TEST(JoinIndex, IsBuiltLazilyAndMatchesAFilteredScan) {
  Table table(keyed_decl());
  for (int k = 0; k < 10; ++k) {
    insert_interned(table, flow("n1", k, k % 3), 1);
    insert_interned(table, flow("n2", k, k % 3), 1);
  }
  EXPECT_EQ(table.index_count(), 0u);
  EXPECT_EQ(indexed_matches(table, 2, Value(1)),
            reference_matches(table, 2, Value(1)));
  EXPECT_EQ(table.index_count(), 1u);
  // A disjoint column set materializes its own index.
  EXPECT_EQ(indexed_matches(table, 0, Value("n2")),
            reference_matches(table, 0, Value("n2")));
  EXPECT_EQ(table.index_count(), 2u);
  // Probing a value with no bucket is an empty enumeration, not an error.
  EXPECT_TRUE(indexed_matches(table, 2, Value(99)).empty());
}

TEST(JoinIndex, StaysCurrentAcrossInsertUpsertAndDelete) {
  Table table(keyed_decl());
  for (int k = 0; k < 6; ++k) insert_interned(table, flow("n1", k, k % 2), 1);
  ASSERT_EQ(indexed_matches(table, 2, Value(0)).size(), 3u);

  // Plain insert after the index exists.
  insert_interned(table, flow("n1", 100, 0), 2);
  EXPECT_EQ(indexed_matches(table, 2, Value(0)),
            reference_matches(table, 2, Value(0)));

  // Upsert displacement: same key (n1, 2), new payload. The displaced row
  // must leave the payload-0 bucket and the new one enter payload-7's.
  const auto result = insert_interned(table, flow("n1", 2, 7), 3);
  ASSERT_TRUE(result.displaced.has_value());
  EXPECT_EQ(indexed_matches(table, 2, Value(0)),
            reference_matches(table, 2, Value(0)));
  EXPECT_EQ(indexed_matches(table, 2, Value(7)),
            reference_matches(table, 2, Value(7)));
  EXPECT_EQ(indexed_matches(table, 2, Value(7)).size(), 1u);

  // Delete.
  ASSERT_TRUE(table.remove(flow("n1", 4, 0), 4));
  EXPECT_EQ(indexed_matches(table, 2, Value(0)),
            reference_matches(table, 2, Value(0)));

  // Re-insert of a removed tuple re-enters the bucket.
  insert_interned(table, flow("n1", 4, 0), 5);
  EXPECT_EQ(indexed_matches(table, 2, Value(0)),
            reference_matches(table, 2, Value(0)));
}

TEST(JoinIndex, MultiColumnProbeAndCopySafety) {
  Table table(keyed_decl());
  for (int k = 0; k < 8; ++k) insert_interned(table, flow("n1", k, k % 4), 1);
  std::vector<Tuple> matched;
  table.for_each_live_matching(
      {0, 2}, {Value("n1"), Value(3)},
      [&](const Table::Row& row) { matched.push_back(row.tuple); });
  EXPECT_EQ(matched, reference_matches(table, 2, Value(3)));
  ASSERT_EQ(table.index_count(), 1u);

  // A copied table drops the cached indexes (they point into the source's
  // live rows) and rebuilds them on demand with identical results.
  const Table copy(table);
  EXPECT_EQ(copy.index_count(), 0u);
  EXPECT_EQ(indexed_matches(copy, 2, Value(3)),
            reference_matches(copy, 2, Value(3)));
}

TEST(JoinIndex, RowsHandBackTheRefsTheyWereInsertedUnder) {
  // The engine builds derivation bodies from these refs instead of
  // re-interning the rows, so every read path must return the row's own.
  Table table(keyed_decl());
  for (int k = 0; k < 6; ++k) {
    table.insert(flow("n1", k, k % 2), 1, static_cast<TupleRef>(100 + k));
  }
  std::vector<TupleRef> matched;
  table.for_each_live_matching(
      {2}, {Value(1)},
      [&](const Table::Row& row) { matched.push_back(row.ref); });
  EXPECT_EQ(matched, (std::vector<TupleRef>{101, 103, 105}));
  const Table::Row* row = table.live_by_key({Value("n1"), Value(4)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->ref, 104u);

  const auto result = table.insert(flow("n1", 4, 9), 2, 200);
  ASSERT_TRUE(result.displaced.has_value());
  EXPECT_EQ(result.displaced->tuple, flow("n1", 4, 0));
  EXPECT_EQ(result.displaced->ref, 104u);
  EXPECT_EQ(table.remove(flow("n1", 4, 9), 3), std::optional<TupleRef>(200));
  EXPECT_EQ(table.remove(flow("n1", 4, 9), 4), std::nullopt);
}

TEST(JoinIndex, KeyOfScratchOverloadAgreesWithAllocating) {
  Table table(keyed_decl());
  const Tuple t = flow("n9", 5, 17);
  std::vector<Value> scratch = {Value(1), Value(2), Value(3)};  // stale
  EXPECT_EQ(table.key_of(t, scratch), table.key_of(t));

  TableDecl keyless;
  keyless.name = "bag";
  keyless.arity = 3;
  const Table bag(keyless);
  EXPECT_EQ(bag.key_of(t, scratch), bag.key_of(t));
  EXPECT_EQ(scratch, t.values());
}

// ------------------------------------------------------------ plan shapes --

TEST(RulePlans, ResolveProbeColumnsAndGreedyOrder) {
  const Program program = parse_program(R"(
    table packet(3) base immutable event.
    table flowEntry(4) keys(0, 2) base mutable.
    table fwd(4) derived event.
    rule r1 fwd(@Sw, Pkt, Dst, Next) :-
      packet(@Sw, Pkt, Dst), flowEntry(@Sw, Prio, Prefix, Next),
      f_matches(Dst, Prefix) == 1.
  )");
  const auto plans = compile_rule_plans(program);
  ASSERT_EQ(plans.count("packet"), 1u);
  ASSERT_EQ(plans.count("flowEntry"), 1u);
  ASSERT_EQ(plans.count("fwd"), 0u);

  // Triggered by a packet, the flowEntry step probes on the shared location
  // variable (column 0) only.
  const RulePlan& by_packet = plans.at("packet").front();
  ASSERT_EQ(by_packet.steps.size(), 1u);
  EXPECT_EQ(by_packet.steps[0].table, "flowEntry");
  EXPECT_EQ(by_packet.steps[0].probe_cols, ColumnSet{0});
  EXPECT_EQ(by_packet.steps[0].residual.size(), 3u);
  EXPECT_EQ(by_packet.constraints.size(), 1u);
  EXPECT_EQ(by_packet.slot_count, 6u);  // Sw Pkt Dst Prio Prefix Next
}

TEST(RulePlans, GreedyOrderPrefersMoreBoundAtoms) {
  const Program program = parse_program(R"(
    table a(2) base mutable event.
    table b(2) base mutable.
    table c(3) base mutable.
    table out(2) derived event.
    rule r out(@N, Y) :- a(@N, X), b(@N, Y), c(@N, X, Y).
  )");
  const auto plans = compile_rule_plans(program);
  const RulePlan& plan = plans.at("a").front();
  ASSERT_EQ(plan.steps.size(), 2u);
  // After the trigger binds (N, X), atom c has two bound columns and joins
  // before b (one bound column) despite appearing later in the body.
  EXPECT_EQ(plan.steps[0].body_index, 2u);
  EXPECT_EQ(plan.steps[0].probe_cols, (ColumnSet{0, 1}));
  EXPECT_EQ(plan.steps[1].body_index, 1u);
  // By then Y is bound too, so b probes on both of its columns.
  EXPECT_EQ(plan.steps[1].probe_cols, (ColumnSet{0, 1}));
}

TEST(RulePlans, RepeatedVariableWithinAnAtomChecksNotProbes) {
  const Program program = parse_program(R"(
    table t(2) base mutable event.
    table pair(3) base mutable.
    table out(2) derived event.
    rule r out(@N, X) :- t(@N, V), pair(@N, X, X).
  )");
  const auto plans = compile_rule_plans(program);
  const RulePlan& plan = plans.at("t").front();
  ASSERT_EQ(plan.steps.size(), 1u);
  // Only the location is bound before the probe; the second X occurrence is
  // an intra-candidate equality check, not part of the index key.
  EXPECT_EQ(plan.steps[0].probe_cols, ColumnSet{0});
  ASSERT_EQ(plan.steps[0].residual.size(), 2u);
  EXPECT_EQ(plan.steps[0].residual[0].kind, ColOp::Kind::kBind);
  EXPECT_EQ(plan.steps[0].residual[1].kind, ColOp::Kind::kCheck);
  EXPECT_EQ(plan.steps[0].residual[0].slot, plan.steps[0].residual[1].slot);
}

// ------------------------------------------------- slot-compiled exprs --

TEST(SlotExprs, CompiledEvaluationMatchesTheBindingsPath) {
  const Bindings bindings = {
      {"X", Value(41)}, {"Y", Value(17)}, {"S", Value("ab")}};
  Regs regs;
  std::map<std::string, std::size_t> slots;
  for (const auto& [name, value] : bindings) {
    slots[name] = regs.size();
    regs.push_back(value);
  }
  const auto resolve = [&slots](const std::string& name) {
    return slots.at(name);
  };
  for (const char* source : {
           "(X * 7 + Y) ^ 12345",
           "X > Y && !(Y == 3)",
           "-X + (Y % 5)",
           "S + \"c\"",
           "f_strlen(S + S) * 2",
       }) {
    const ExprPtr expr = parse_expression(source);
    const SlotExpr compiled = compile_expr(*expr, resolve);
    EXPECT_EQ(eval_expr(compiled, regs), eval_expr(*expr, bindings))
        << source;
  }
}

// --------------------------------------------------------- same-time runs --
//
// Within a run of events at one logical time, evaluation order is visible:
// each event must be inserted, fired and its emissions queued before the
// next event of the run is popped. These cases pin that against the oracle.

/// A single-node run of `program_text` over `records`.
ScenarioRun same_time_run(const std::string& program_text,
                          const std::vector<LogRecord>& records) {
  EventLog log;
  for (const LogRecord& r : records) log.append(r);
  return {"same_time", parse_program(program_text), Topology{},
          std::move(log)};
}

/// Runs both evaluators over `run`, expects the plan evaluator to match the
/// oracle, and returns its result for case-specific checks.
RunResult planned_checked_against_oracle(const ScenarioRun& run) {
  RunResult planned = run_scenario(run, Variant::kRow);
  expect_matches_oracle(planned, run_scenario(run, Variant::kFullScan));
  return planned;
}

LogRecord insert_at(const Tuple& tuple, LogicalTime t) {
  return LogRecord(LogRecord::Op::kInsert, t, tuple);
}

TEST(SameTimeRun, SelfJoinRunMatchesFullScan) {
  // p's own plan probes p, so each insert of the run must fire against the
  // inserts before it and never against those after it.
  const std::string program = R"(
    table p(2) keys(0, 1) base mutable.
    table out(3) derived event.
    rule r out(@N, X, Y) :- p(@N, X), p(@N, Y).
  )";
  std::vector<LogRecord> records;
  for (int k = 0; k < 6; ++k) {
    records.push_back(insert_at(Tuple("p", {Value("n1"), Value(k)}), 1));
  }
  const RunResult planned =
      planned_checked_against_oracle(same_time_run(program, records));
  // Insert i (1-based) joins itself and its i-1 predecessors, once per
  // trigger atom: 2 * (1 + 2 + ... + 6) = 42 derived `out` events.
  EXPECT_EQ(planned.stats.derivations, 42u);
}

TEST(SameTimeRun, IndependentProbesWithHalfMissesMatchFullScan) {
  // A run of probe events that only read b: half hit, half miss (keys past
  // the populated range).
  const std::string program = R"(
    table a(2) base immutable event.
    table b(3) keys(0, 1) base mutable.
    table out(3) derived event.
    rule r out(@N, K, V) :- a(@N, K), b(@N, K, V).
  )";
  std::vector<LogRecord> records;
  for (int k = 0; k < 8; ++k) {
    records.push_back(
        insert_at(Tuple("b", {Value("n1"), Value(k), Value(k * 10)}), 0));
  }
  for (int k = 0; k < 8; ++k) {
    records.push_back(insert_at(Tuple("a", {Value("n1"), Value(k * 2)}), 1));
  }
  const RunResult planned =
      planned_checked_against_oracle(same_time_run(program, records));
  EXPECT_EQ(planned.stats.derivations, 4u);
}

TEST(SameTimeRun, DisplacingUpsertMatchesFullScan) {
  // Two same-time inserts with the same key: the second displaces the
  // first, whose retraction runs between them.
  const std::string program = R"(
    table kv(3) keys(0, 1) base mutable.
    table echo(3) derived event.
    rule r echo(@N, K, V) :- kv(@N, K, V).
  )";
  const std::vector<LogRecord> records = {
      insert_at(Tuple("kv", {Value("n1"), Value(1), Value(10)}), 1),
      insert_at(Tuple("kv", {Value("n1"), Value(2), Value(20)}), 1),
      insert_at(Tuple("kv", {Value("n1"), Value(1), Value(11)}), 1),
  };
  const RunResult planned =
      planned_checked_against_oracle(same_time_run(program, records));
  EXPECT_EQ(planned.stats.base_deletes, 1u);
  ASSERT_EQ(planned.live.at("kv").size(), 2u);
}

// ------------------------------------------- support-map retraction fix --

TEST(SupportMap, RetractionErasesExhaustedEntries) {
  Engine engine(parse_program(R"(
    table base(2) base mutable.
    table mid(2) derived.
    table top(2) derived.
    rule r1 mid(@N, X) :- base(@N, X).
    rule r2 top(@N, X) :- mid(@N, X).
  )"));
  for (int i = 0; i < 5; ++i) {
    engine.schedule_insert(Tuple("base", {Value("n"), Value(i)}), 1);
  }
  engine.run();
  // One supported entry per live derived head (mid + top per base tuple).
  EXPECT_EQ(engine.support_entries(), 10u);

  for (int i = 0; i < 5; ++i) {
    engine.schedule_delete(Tuple("base", {Value("n"), Value(i)}), 100);
  }
  engine.run();
  EXPECT_EQ(engine.stats().underivations, 10u);
  // Regression: retraction used to write support[tuple] = 0, leaving one
  // dead map entry per underived head; now the entries are erased.
  EXPECT_EQ(engine.support_entries(), 0u);

  // Re-derivation after a full teardown starts clean.
  engine.schedule_insert(Tuple("base", {Value("n"), Value(1)}), 200);
  engine.run();
  EXPECT_EQ(engine.support_entries(), 2u);
}

}  // namespace
}  // namespace dp
