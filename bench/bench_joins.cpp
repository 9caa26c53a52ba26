// Execution-variant ablation on a probe-driven two-hop equijoin: the same
// workload executed by the full-scan reference evaluator and the default
// indexed-plan engine. Prints a comparison table and writes BENCH_joins.json
// (machine-readable; consumed by CI and checked in at the repo root) with
// per-variant tuples/sec and the acceptance gate
// acceptance_speedup_at_least_2x: indexed row plans must run at least 2x
// full scans, median of per-wave ratios. The process exits non-zero if the
// gate fails, so CI can run the binary directly. Past the full-scan size cap
// the row engine's throughput is still reported, to show how it scales.
//
// Shape of the workload -- a diagnostic probe storm, deliberately
// join-heavy: left/right build tables at t=0 (untimed), then `kWaves` waves
// of probe events, one wave per logical time. Seven probes in eight miss (no
// matching flow entry: one index probe, the common case when sweeping for an
// anomaly), every eighth hits and drives the full two-hop descent
// probe -> left(N,K) -> right(N,V) through the secondary hash indexes. A
// constraint on the joined value filters all but ~1/16 of the complete
// matches, so measured time is dominated by index probing and join
// verification rather than by derived-event processing -- while the
// surviving matches still derive `out` events end-to-end, keeping the
// emission, scheduling, and provenance paths in the measurement. Timing
// covers the probe waves only.
//
// Usage: bench_joins [--fast] [output.json]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "ndlog/parser.h"
#include "runtime/engine.h"

namespace dp {
namespace {

/// One complete match in 16 survives the W constraint (W is the joined
/// right-hand value, uniform over [1, rows]): the join work happens for
/// every hit, the derivation tail only for the survivors.
Program join_program(std::int64_t rows) {
  return parse_program(R"(
    table probe(2) base immutable event.
    table left(3) keys(0, 1) base mutable.
    table right(3) keys(0, 1) base mutable.
    table out(3) derived event.
    rule j out(@N, K, W) :-
      probe(@N, K), left(@N, K, V), right(@N, V, W), W < )" +
                       std::to_string(rows / 16 + 1) + R"(.
  )");
}

enum class Variant { kFullScan, kRow };

struct Run {
  double tuples_per_sec = 0;  // median across waves, probe deltas per second
  Engine::Stats stats;        // cumulative over every wave
};

/// Scrambles `i` into [0, rows) so consecutive probes touch scattered keys
/// (index slots), not a cache-friendly ascending run.
std::int64_t scatter(std::int64_t i, std::int64_t rows) {
  return static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(i) * 2654435761u) % static_cast<std::uint64_t>(rows));
}

std::unique_ptr<Engine> build_engine(std::int64_t rows, Variant variant) {
  EngineConfig config;
  config.use_join_plans = variant == Variant::kRow;
  auto engine = std::make_unique<Engine>(join_program(rows), config);
  // Build phase, untimed: each table's inserts form one contiguous run.
  for (std::int64_t k = 0; k < rows; ++k) {
    engine->schedule_insert(Tuple("left", {Value("n1"), Value(k), Value(k)}),
                            0);
  }
  for (std::int64_t k = 0; k < rows; ++k) {
    engine->schedule_insert(
        Tuple("right", {Value("n1"), Value(k), Value(k + 1)}), 0);
  }
  engine->run_until(0);
  return engine;
}

/// Feeds one wave of probes and times its run. Every variant receives the
/// identical wave (same keys, same order), back to back within each wave --
/// the paired timing makes the per-wave speedup ratios robust against
/// machine-load drift that would swamp sequential whole-run comparisons.
double time_wave(Engine& engine, std::int64_t rows,
                 std::int64_t probes_per_wave, int wave) {
  const LogicalTime t = static_cast<LogicalTime>(wave) + 1;
  for (std::int64_t i = 0; i < probes_per_wave; ++i) {
    // Seven misses (keys past the populated range), then a hit (a key in
    // [0, rows), driving the full two-hop descent).
    const std::int64_t key = i % 8 != 7 ? rows + scatter(i + wave, rows)
                                        : scatter(i + wave, rows);
    engine.schedule_insert(Tuple("probe", {Value("n1"), Value(key)}), t);
  }
  const bench::WallTimer timer;
  engine.run_until(t);
  return timer.seconds();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

struct SizeResult {
  Run scan;  // tuples_per_sec = 0 when the size is over the cap
  Run row;
  double row_speedup = 0;  // median of per-wave row/scan ratios (if run)
};

SizeResult run_size(std::int64_t rows, std::int64_t probes_per_wave,
                    int waves, bool with_scan) {
  std::unique_ptr<Engine> scan =
      with_scan ? build_engine(rows, Variant::kFullScan) : nullptr;
  std::unique_ptr<Engine> row = build_engine(rows, Variant::kRow);

  // One untimed warmup wave per engine: the first wave pays first-touch
  // growth (queue, scratch buffers) that no steady wave sees, for any
  // variant.
  time_wave(*row, rows, probes_per_wave, 0);
  if (scan != nullptr) time_wave(*scan, rows, probes_per_wave, 0);

  std::vector<double> scan_rates, row_rates, row_ratios;
  for (int wave = 1; wave <= waves; ++wave) {
    const double row_s = time_wave(*row, rows, probes_per_wave, wave);
    row_rates.push_back(static_cast<double>(probes_per_wave) / row_s);
    if (scan != nullptr) {
      const double scan_s = time_wave(*scan, rows, probes_per_wave, wave);
      scan_rates.push_back(static_cast<double>(probes_per_wave) / scan_s);
      row_ratios.push_back(scan_s / row_s);
    }
  }
  SizeResult result;
  result.row.tuples_per_sec = median(row_rates);
  result.row.stats = row->stats();
  if (scan != nullptr) {
    result.scan.tuples_per_sec = median(scan_rates);
    result.scan.stats = scan->stats();
    result.row_speedup = median(row_ratios);
  }
  return result;
}

}  // namespace
}  // namespace dp

int main(int argc, char** argv) {
  using namespace dp;
  bool fast = false;
  std::string out_path = "BENCH_joins.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fast") {
      fast = true;
    } else {
      out_path = arg;
    }
  }
  const std::vector<std::int64_t> sizes =
      fast ? std::vector<std::int64_t>{8000, 64000}
           : std::vector<std::int64_t>{8000, 64000, 262144};
  const std::int64_t probes = fast ? 2000 : 4000;
  const int waves = fast ? 3 : 5;
  // Full scans visit every live row per probe; cap the sizes they run at so
  // the benchmark stays fast (the scan column reads "-" past the cap).
  const std::int64_t full_scan_cap = 8000;

  bench::print_header("Join execution variants: full scan vs row plans",
                      "gate: row >= 2x full scan");
  bench::print_row({"rows/table", "scan tup/s", "row tup/s", "row/scan",
                    "probes", "matched"});

  std::ofstream json(out_path);
  json << "{\n  \"benchmark\": \"join_exec_variants\",\n"
       << "  \"probes_per_wave\": " << probes << ",\n  \"waves\": " << waves
       << ",\n  \"runs\": [\n";
  bool row_ok = true;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::int64_t rows = sizes[i];
    const bool with_scan = rows <= full_scan_cap;
    const SizeResult r = run_size(rows, probes, waves, with_scan);
    if (with_scan) row_ok = row_ok && r.row_speedup >= 2.0;
    bench::print_row(
        {std::to_string(rows),
         with_scan ? bench::fmt(r.scan.tuples_per_sec, 0) : "-",
         bench::fmt(r.row.tuples_per_sec, 0),
         with_scan ? bench::fmt(r.row_speedup, 1) + "x" : "-",
         std::to_string(r.row.stats.index_probes),
         std::to_string(r.row.stats.tuples_matched)});
    json << "    {\"rows_per_table\": " << rows;
    if (with_scan) {
      json << ", \"full_scan_tuples_per_sec\": "
           << bench::fmt(r.scan.tuples_per_sec, 1)
           << ", \"row_speedup_vs_full_scan\": "
           << bench::fmt(r.row_speedup, 2);
    }
    json << ", \"row_tuples_per_sec\": "
         << bench::fmt(r.row.tuples_per_sec, 1)
         << ", \"index_probes\": " << r.row.stats.index_probes
         << ", \"tuples_matched\": " << r.row.stats.tuples_matched << "}"
         << (i + 1 < sizes.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"acceptance_speedup_at_least_2x\": "
       << (row_ok ? "true" : "false") << "\n}\n";
  std::cout << "\nwrote " << out_path << "\n";
  if (!row_ok) std::cerr << "FAIL: row plans < 2x full scans\n";
  return row_ok ? 0 : 1;
}
