// Micro-benchmarks (google-benchmark) for the load-bearing primitives:
// engine forwarding throughput, provenance maintenance, taint-formula
// evaluation and inversion, tree projection, the tree-diff baselines, and
// event-log serialization. These back the cost model behind Figures 5-8.
#include <benchmark/benchmark.h>

#include <sstream>

#include "diffprov/formula.h"
#include "diffprov/treediff.h"
#include "ndlog/parser.h"
#include "provenance/recorder.h"
#include "replay/event_log.h"
#include "runtime/engine.h"
#include "sdn/program.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"

namespace dp {
namespace {

EventLog scenario_log_with_traffic(std::size_t packets) {
  sdn::Scenario s = sdn::sdn1();
  sdn::TraceConfig trace;
  trace.rate_mbps = 100.0;
  trace.duration_s = 10.0;
  trace.max_packets = packets;
  EventLog background;
  sdn::generate_trace(trace, background);
  EventLog log = s.log;
  for (const LogRecord& r : background.records()) log.append(r);
  return log;
}

/// Packets/second through the Figure-1 network, bare engine.
void BM_EngineForwarding(benchmark::State& state) {
  const auto packets = static_cast<std::size_t>(state.range(0));
  const EventLog log = scenario_log_with_traffic(packets);
  for (auto _ : state) {
    Engine engine(sdn::make_program());
    for (const LogRecord& r : log.records()) {
      if (r.op == LogRecord::Op::kInsert) {
        engine.schedule_insert(r.tuple(), r.time);
      } else {
        engine.schedule_delete(r.tuple(), r.time);
      }
    }
    engine.run();
    benchmark::DoNotOptimize(engine.stats().derivations);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets) *
                          state.iterations());
}
BENCHMARK(BM_EngineForwarding)->Arg(1000)->Arg(5000);

/// Two-way equijoin through large materialized tables: the workload the
/// secondary indexes exist for. Each probe event binds a key that selects
/// exactly one row per joined table, so the full-scan reference examines
/// O(rows) candidates per probe while the indexed plans examine O(1).
Program join_bench_program() {
  return parse_program(R"(
    table probe(2) base immutable event.
    table left(3) keys(0, 1) base mutable.
    table right(3) keys(0, 1) base mutable.
    table out(3) derived event.
    rule j out(@N, K, W) :-
      probe(@N, K), left(@N, K, V), right(@N, V, W).
  )");
}

void BM_JoinIndex(benchmark::State& state) {
  const auto rows = state.range(0);
  const bool use_plans = state.range(1) != 0;
  constexpr std::int64_t kProbes = 200;
  EngineConfig config;
  config.use_join_plans = use_plans;
  for (auto _ : state) {
    Engine engine(join_bench_program(), config);
    for (std::int64_t k = 0; k < rows; ++k) {
      engine.schedule_insert(
          Tuple("left", {Value("n1"), Value(k), Value(k)}), 0);
      engine.schedule_insert(
          Tuple("right", {Value("n1"), Value(k), Value(k + 1)}), 0);
    }
    for (std::int64_t k = 0; k < kProbes; ++k) {
      engine.schedule_insert(
          Tuple("probe", {Value("n1"), Value(k % rows)}), 1);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.stats().derivations);
  }
  state.SetItemsProcessed(kProbes * state.iterations());
  state.SetLabel(use_plans ? "indexed" : "full-scan");
}
BENCHMARK(BM_JoinIndex)
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({4000, 0})
    ->Args({4000, 1});

/// The full-scan reference evaluator over a table that changes with every
/// event: each logical time adds a row with a new key to `left`, deletes its
/// oldest row and sends one probe whose rule scans `left`. A table keeps its
/// key order once scanned, so each change costs a binary search, not a
/// re-sort before the next scan.
void BM_FullScanChurn(benchmark::State& state) {
  const auto rows = state.range(0);
  constexpr std::int64_t kSteps = 500;
  EngineConfig config;
  config.use_join_plans = false;
  const Program program = parse_program(R"(
    table probe(2) base immutable event.
    table left(3) keys(0, 1) base mutable.
    table out(3) derived event.
    rule j out(@N, K, V) :- probe(@N, K), left(@N, J, V), J < K.
  )");
  for (auto _ : state) {
    state.PauseTiming();
    Engine engine(program, config);
    for (std::int64_t k = 0; k < rows; ++k) {
      engine.schedule_insert(Tuple("left", {Value("n1"), Value(k), Value(k)}),
                             0);
    }
    engine.run_until(0);
    for (std::int64_t s = 1; s <= kSteps; ++s) {
      engine.schedule_insert(
          Tuple("left", {Value("n1"), Value(rows + s), Value(rows + s)}), s);
      engine.schedule_delete(
          Tuple("left", {Value("n1"), Value(s - 1), Value(s - 1)}), s);
      engine.schedule_insert(Tuple("probe", {Value("n1"), Value(s + 3)}), s);
    }
    state.ResumeTiming();
    engine.run();
    benchmark::DoNotOptimize(engine.stats().derivations);
  }
  state.SetItemsProcessed(kSteps * state.iterations());
}
BENCHMARK(BM_FullScanChurn)->Arg(2000)->Unit(benchmark::kMillisecond);

/// Same, with the provenance recorder attached (the "infer" mode cost).
void BM_EngineWithProvenance(benchmark::State& state) {
  const auto packets = static_cast<std::size_t>(state.range(0));
  const EventLog log = scenario_log_with_traffic(packets);
  for (auto _ : state) {
    Engine engine(sdn::make_program());
    ProvenanceRecorder recorder;
    engine.add_observer(&recorder);
    for (const LogRecord& r : log.records()) {
      if (r.op == LogRecord::Op::kInsert) {
        engine.schedule_insert(r.tuple(), r.time);
      } else {
        engine.schedule_delete(r.tuple(), r.time);
      }
    }
    engine.run();
    benchmark::DoNotOptimize(recorder.graph().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(packets) *
                          state.iterations());
}
BENCHMARK(BM_EngineWithProvenance)->Arg(1000)->Arg(5000);

void BM_FormulaEval(benchmark::State& state) {
  FormulaEnv env;
  env["X"] = Formula::make_seed_field(0);
  env["Y"] = Formula::make_seed_field(1);
  const auto formula =
      formula_from_expr(*parse_expression("(X * 7 + Y) ^ 12345"), env);
  const std::vector<Value> seed = {Value(41), Value(17)};
  for (auto _ : state) {
    benchmark::DoNotOptimize((*formula)->eval(seed));
  }
}
BENCHMARK(BM_FormulaEval);

void BM_FormulaInversion(benchmark::State& state) {
  const ExprPtr expr = parse_expression("2 * (X - 3) + 1");
  for (auto _ : state) {
    auto inv = invert_expr_for_var(*expr, "X",
                                   Formula::make_const(Value(11)), {});
    benchmark::DoNotOptimize((*inv)->eval({}));
  }
}
BENCHMARK(BM_FormulaInversion);

void BM_PrefixSolver(benchmark::State& state) {
  FormulaEnv env;
  env["P"] = Formula::make_const(Value(*IpPrefix::parse("4.3.2.0/24")));
  const ExprPtr expr = parse_expression("f_matches(4.3.3.1, P)");
  for (auto _ : state) {
    auto inv =
        invert_expr_for_var(*expr, "P", Formula::make_const(Value(1)), env);
    benchmark::DoNotOptimize(inv->get());
  }
}
BENCHMARK(BM_PrefixSolver);

struct Trees {
  ProvTree good;
  ProvTree bad;
};

Trees sdn1_trees() {
  const sdn::Scenario s = sdn::sdn1();
  Engine engine(sdn::make_program());
  ProvenanceRecorder recorder;
  engine.add_observer(&recorder);
  for (const LogRecord& r : s.log.records()) {
    if (r.op == LogRecord::Op::kInsert) {
      engine.schedule_insert(r.tuple(), r.time);
    } else {
      engine.schedule_delete(r.tuple(), r.time);
    }
  }
  engine.run();
  const auto good =
      recorder.graph().latest_exist_before(s.good_event, kTimeInfinity);
  const auto bad =
      recorder.graph().latest_exist_before(s.bad_event, kTimeInfinity);
  return {ProvTree::project(recorder.graph(), *good),
          ProvTree::project(recorder.graph(), *bad)};
}

void BM_TreeProjection(benchmark::State& state) {
  const sdn::Scenario s = sdn::sdn1();
  Engine engine(sdn::make_program());
  ProvenanceRecorder recorder;
  engine.add_observer(&recorder);
  for (const LogRecord& r : s.log.records()) {
    if (r.op == LogRecord::Op::kInsert) {
      engine.schedule_insert(r.tuple(), r.time);
    }
  }
  engine.run();
  const auto root =
      recorder.graph().latest_exist_before(s.bad_event, kTimeInfinity);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ProvTree::project(recorder.graph(), *root));
  }
}
BENCHMARK(BM_TreeProjection);

void BM_PlainTreeDiff(benchmark::State& state) {
  const Trees trees = sdn1_trees();
  for (auto _ : state) {
    benchmark::DoNotOptimize(plain_tree_diff(trees.good, trees.bad));
  }
}
BENCHMARK(BM_PlainTreeDiff);

void BM_TreeEditDistance(benchmark::State& state) {
  const Trees trees = sdn1_trees();
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree_edit_distance(trees.good, trees.bad));
  }
}
BENCHMARK(BM_TreeEditDistance);

void BM_EventLogSerialize(benchmark::State& state) {
  EventLog log;
  sdn::TraceConfig trace;
  trace.rate_mbps = 10.0;
  trace.duration_s = 1.0;
  trace.max_packets = 2000;
  sdn::generate_trace(trace, log);
  for (auto _ : state) {
    std::ostringstream out;
    log.serialize(out);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(log.byte_size()) * state.iterations());
}
BENCHMARK(BM_EventLogSerialize);

void BM_EventLogRoundTrip(benchmark::State& state) {
  EventLog log;
  sdn::TraceConfig trace;
  trace.rate_mbps = 10.0;
  trace.duration_s = 1.0;
  trace.max_packets = 2000;
  sdn::generate_trace(trace, log);
  std::ostringstream out;
  log.serialize(out);
  const std::string blob = out.str();
  for (auto _ : state) {
    std::istringstream in(blob);
    benchmark::DoNotOptimize(EventLog::deserialize(in).size());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(blob.size()) *
                          state.iterations());
}
BENCHMARK(BM_EventLogRoundTrip);

}  // namespace
}  // namespace dp

BENCHMARK_MAIN();
