// Live-tap ingest: an always-current provenance graph per stream.
//
// Every diagnosis used to materialize its BadRun by replaying the recorded
// log (warm sessions only amortize that replay). An IngestStream removes the
// replay from the hot path: base events are appended *as they arrive* and
// fed straight into a resident engine + ProvenanceRecorder, so the columnar
// provenance graph is maintained incrementally and a diagnosis snapshot is a
// lookup, not a replay.
//
// Byte-identity is the contract and the engine's two seq bands are the
// mechanism (runtime/engine.h): an appended event at time t first advances
// the live engine to t-1 (`run_until`), then schedules -- so every event is
// processed against exactly the state, and in exactly the (time, seq) order,
// that a batch replay of the same prefix would produce. A snapshot drains
// the in-flight queue (`run()`), which equals batch replay's quiescence.
// Appends must be time-ordered (watermark-monotone); if an event arrives at
// or before a *quiesced* snapshot's horizon, the live engine is marked stale
// and the next snapshot rebuilds it by one full replay
// (dp.ingest.live_rebuilds) -- graceful degradation to warm-session cost,
// never a wrong answer.
//
// History: the stream keeps one copy, the full in-memory event log.
// DiffProv's experiment replays need the whole prefix, so a checkpoint
// cannot replace any part of it; section 4.8's checkpoints serve the
// warm-session tier instead (restore_from_checkpoint). resident_bytes()
// bills the log together with the graph.
//
// Concurrency follows WarmSession: the stream carries one mutex; appenders
// and diagnosis snapshots both hold it ("caller holds mutex()" on every
// mutating call). resident_bytes(), content_hash(), and watermark() are
// relaxed atomics readable without the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "diffprov/diffprov.h"
#include "obs/metrics.h"
#include "replay/replay_engine.h"

namespace dp::ingest {

struct IngestStreamStats {
  std::uint64_t events = 0;         // records appended over the stream's life
  std::uint64_t live_rebuilds = 0;  // stale snapshots repaired by full replay
  std::uint64_t snapshots = 0;
  std::uint64_t resident_bytes = 0;  // graph + retained log
  LogicalTime watermark = 0;         // newest appended event time
};

class IngestStream {
 public:
  /// A stream serves one program/topology; `good_event`/`bad_event` are the
  /// diagnosis defaults (from the scenario the stream was opened against,
  /// when it was). The live engine starts empty -- history arrives only
  /// through append().
  IngestStream(std::string key, Program program, Topology topology,
               std::optional<Tuple> good_event, std::optional<Tuple> bad_event,
               ReplayOptions options, obs::MetricsRegistry& registry);

  /// Per-stream serialization: hold while calling any mutating member or
  /// while diagnosing against the run returned by ensure_current().
  [[nodiscard]] std::mutex& mutex() { return mutex_; }

  [[nodiscard]] const std::string& key() const { return key_; }
  [[nodiscard]] const Program& program() const { return program_; }
  [[nodiscard]] const Topology& topology() const { return topology_; }
  [[nodiscard]] const std::optional<Tuple>& good_event() const {
    return good_event_;
  }
  [[nodiscard]] const std::optional<Tuple>& bad_event() const {
    return bad_event_;
  }
  /// The full retained event prefix (caller holds mutex()).
  [[nodiscard]] const EventLog& log() const { return log_; }

  /// Appends one batch of events in EventLog text form ("+ tuple @ t" per
  /// line); the whole batch is validated -- parse (line-numbered errors) and
  /// watermark order -- before any record is applied, so a bad batch never
  /// half-applies. Refreshes resident_bytes(). Returns the number of records
  /// appended. Caller holds mutex().
  std::size_t append_text(std::string_view text);

  /// Appends one record (validated against the watermark). Caller holds
  /// mutex().
  void append(const LogRecord& record);

  /// The always-current run for diagnosis: drains the in-flight event queue
  /// (or, after a stale append, rebuilds by full replay -- `rebuilt` reports
  /// which). The returned BadRun aliases the live graph/engine; it is valid
  /// while the caller holds mutex(). Caller holds mutex().
  std::shared_ptr<const BadRun> ensure_current(bool* rebuilt = nullptr);

  [[nodiscard]] IngestStreamStats stats() const;  // caller holds mutex()

  /// Running content hash of the appended prefix (mixes op, time, interned
  /// ref per record); the service keys result-cache entries on it. Readable
  /// without mutex().
  [[nodiscard]] std::uint64_t content_hash() const {
    return hash_.load(std::memory_order_relaxed);
  }
  /// Newest appended event time; readable without mutex().
  [[nodiscard]] LogicalTime watermark() const {
    return watermark_.load(std::memory_order_relaxed);
  }
  /// Measured footprint: provenance graph + retained log. Refreshed per
  /// appended batch and per snapshot; readable without mutex() (the budget
  /// ledger reads it from other threads).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void feed_live(const LogRecord& record);
  void rebuild_live();
  void update_resident();

  std::string key_;
  Program program_;
  Topology topology_;
  std::optional<Tuple> good_event_;
  std::optional<Tuple> bad_event_;
  ReplayOptions options_;
  obs::MetricsRegistry* registry_;

  std::mutex mutex_;
  // Live tier: the incrementally fed engine and its recorder. shared_ptrs so
  // the BadRun handed to a diagnosis can alias them (WarmSession-style).
  std::shared_ptr<Engine> engine_;
  std::shared_ptr<ProvenanceRecorder> recorder_;
  std::shared_ptr<const BadRun> run_;
  /// True between a snapshot's run-to-quiescence and the next append: the
  /// engine may have processed past the watermark.
  bool quiesced_ = false;
  /// A post-quiescence append landed at or before the engine's horizon; the
  /// live engine no longer matches the prefix and the next snapshot rebuilds
  /// it (appends keep accumulating in the log meanwhile).
  bool stale_live_ = false;

  // Retained history: the full prefix (DiffProv experiment replays need it).
  EventLog log_;

  IngestStreamStats stats_;
  std::atomic<std::uint64_t> hash_{0xcbf29ce484222325ull};
  std::atomic<LogicalTime> watermark_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};

  obs::Counter& events_counter_;
  obs::Counter& rebuilds_counter_;
  obs::Counter& snapshots_counter_;
  obs::QuantileSketch& snapshot_us_;
};

}  // namespace dp::ingest
