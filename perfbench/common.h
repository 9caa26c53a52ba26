// Shared plumbing of the diagnosis benchmark: options, statistics, the
// result being printed, and the in-memory span recorder of the traced run.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into each layer (the program under test carries no tracing of its
// own for this benchmark). A span's self time is its duration minus the time
// its children cover; the ledger sums self times per layer.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "replay/event_log.h"
#include "replay/replay_engine.h"
#include "runtime/engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The layers of the per-layer ledger, in report order (the repository's
/// modules on the diagnosis path).
inline const std::vector<std::string>& layer_names() {
  static const std::vector<std::string> kLayers = {
      "replay", "runtime", "provenance", "diffprov",
      "service", "ingest", "store"};
  return kLayers;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test hook: every diagnosis is checked against a root cause that
  /// no scenario produces, so every one must count as failed.
  bool wrong_expectation = false;
  /// Where the traced run writes its spans (inside the checkout).
  std::string spans_path;
  std::string source_id;  // git commit or source-tree hash, from run.py
};

// --- timing and statistics -------------------------------------------------

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

/// Process CPU time (all threads), seconds.
double cpu_seconds();
/// Peak resident set of this process (VmHWM), MiB.
double peak_rss_mb();

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Median of each group, averaged over the groups with equal weight: a
/// workload that cycles through scenarios of very different cost reports
/// the same figure whichever scenario the run happened to end on.
double balanced_median(const std::map<std::string, std::vector<double>>& groups);
/// Least-squares slope of log(y) against log(x).
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

// --- result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Input sizes of the workload, recorded with the environment.
  std::vector<std::pair<std::string, std::string>> inputs;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Adds the per-layer metrics a workload does not exercise, as zeros, so
/// every traced run prints the whole per-layer set.
void fill_missing_layer_metrics(Result& result);

/// Adds store.tuples, the global TupleStore's size now. Workloads call it
/// once their diagnoses are done and before the replay probes, whose larger
/// inputs would otherwise be counted too (the store never frees).
void add_store_tuples(Result& result);

/// Set-up time in seconds: runs `build` once untimed (the fresh process's
/// first-touch costs), then `reps` times timed, notes the spread of the
/// timed reps and returns their median. `discard` runs untimed before each
/// timed rep, to drop what the previous rep built.
template <typename Build, typename Discard>
double timed_setup(Result& result, int reps, Build build, Discard discard) {
  build();
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    discard();
    const auto start = Clock::now();
    build();
    seconds.push_back(ms_since(start) / 1000.0);
  }
  const auto [lo, hi] = std::minmax_element(seconds.begin(), seconds.end());
  result.note("set-up: " + std::to_string(reps) + " reps, min " + std::to_string(*lo) +
              " s, median " + std::to_string(median(seconds)) + " s, max " +
              std::to_string(*hi) + " s");
  return median(seconds);
}

// --- tracing -----------------------------------------------------------------

struct Span {
  std::string layer;  // one of layer_names(), or "" for a diagnosis root
  std::string name;
  double start_ms = 0;  // since the tracer's origin
  double end_ms = 0;
  int parent = -1;  // index into the span list
  int diagnosis = -1;
};

/// In-memory span recorder. Single-threaded use per instance; the serving
/// workload merges per-thread recorders once its threads have joined.
class Tracer {
 public:
  explicit Tracer(bool enabled = false, Clock::time_point origin = Clock::now())
      : enabled_(enabled), origin_(origin) {}

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(const std::string& layer, const std::string& name,
            int diagnosis = -1);
  void end(int index);
  /// Records a finished span with explicit bounds (a split of a measured
  /// interval the program reports but the benchmark cannot bracket).
  int add(const std::string& layer, const std::string& name, double start_ms,
          double end_ms, int parent, int diagnosis);
  [[nodiscard]] double now_ms() const { return ms_since(origin_); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Appends another recorder's spans (same origin), re-basing parents.
  void merge(const Tracer& other);

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& layer, const std::string& name,
             int diagnosis = -1)
      : tracer_(tracer), index_(tracer.begin(layer, name, diagnosis)) {}
  ~ScopedSpan() { tracer_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Adds runtime and provenance children to every engine-backed replay span
/// (layer "replay", name "replay", "update_replay" or "warm_replay"),
/// splitting it by the engine's measured share of a replay of the same
/// input. The program reports a replay as one interval; the split is the
/// ledger's estimate until the program records the two itself.
void split_replay_spans(Tracer& tracer, double runtime_share);

/// Writes the spans as one JSON array (layer, name, start, end, parent,
/// diagnosis per span).
void write_spans(const std::vector<Span>& spans, const std::string& path);

// --- layer probes ------------------------------------------------------------

/// Probes the input `make_log(scale)` builds at 1/2x, 1x and 2x the
/// workload's size (median of three probes each), adds the runtime.*,
/// replay.replay_ms and provenance.record/vertices/graph metrics of the 1x
/// input plus runtime.scale_slope, and returns the engine's share of a 1x
/// replay.
double probe_scales(Result& result, const dp::Program& program,
                    const dp::Topology& topology,
                    const std::function<dp::EventLog(double)>& make_log);

/// Adds the ledger: <layer>.self_ms for every layer (the workload statistic
/// over diagnoses), trace.coverage against `untraced_p50_ms` and
/// trace.overhead_frac of the traced diagnoses' wall time.
/// `group_of` names each diagnosis's group (scenario) for balanced medians.
void add_ledger_metrics(Result& result, const std::vector<Span>& spans,
                        const std::map<int, std::string>& group_of,
                        double untraced_p50_ms, double traced_p50_ms,
                        bool balanced);

// --- workloads ---------------------------------------------------------------

Result run_cold(const Options& options);
Result run_serve_live(const Options& options);

}  // namespace perfbench
