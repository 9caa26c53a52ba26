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
// Tiering (paper section 4.8): arriving records accumulate in an open
// *epoch*; epochs seal into immutable LogSegments (segment.h); every K
// sealed epochs a Checkpoint of the live engine's base state is captured. A
// fresh consumer bootstraps from checkpoint + segment suffix instead of the
// full history. Maintenance passes merge small sealed segments (compaction)
// and drop segments once the newest checkpoint covers them (epoch-bounded
// truncation); the full in-memory event log is retained -- DiffProv's own
// experiment replays need the complete prefix -- and is billed, together
// with the graph and the resident segments, through resident_bytes().
//
// Concurrency follows WarmSession: the stream carries one mutex; appenders,
// diagnosis snapshots, and maintenance all hold it ("caller holds mutex()"
// on every mutating call). resident_bytes(), content_hash(), and watermark()
// are relaxed atomics readable without the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diffprov/diffprov.h"
#include "ingest/segment.h"
#include "obs/metrics.h"
#include "replay/replay_engine.h"

namespace dp::ingest {

struct IngestOptions {
  /// Records per epoch; the open epoch seals when it reaches this many
  /// (clamped to at least 1). seal() forces an early boundary.
  std::size_t epoch_events = 256;
  /// Capture a Checkpoint of the live engine every this many sealed epochs
  /// (0 = never checkpoint, which also disables truncation).
  std::size_t checkpoint_every_epochs = 4;
  /// Resident segments allowed before a maintenance pass merges the oldest
  /// adjacent pair, repeatedly (0 = no compaction).
  std::size_t compact_watermark = 8;
  /// Checkpoint-covered epochs kept resident for bootstrap consumers before
  /// truncation drops them; memory pressure truncates every covered epoch.
  std::size_t retain_epochs = 8;
};

struct IngestStreamStats {
  std::uint64_t events = 0;         // records appended over the stream's life
  std::uint32_t sealed_epochs = 0;  // epochs sealed so far
  std::uint64_t open_records = 0;   // records in the open epoch
  std::uint64_t segments = 0;       // segments currently resident
  std::uint64_t checkpoints = 0;
  std::uint64_t compactions = 0;         // merge passes applied
  std::uint64_t segments_compacted = 0;  // segments merged away
  std::uint64_t truncated_segments = 0;
  std::uint64_t truncated_bytes = 0;
  std::uint64_t live_rebuilds = 0;  // stale snapshots repaired by full replay
  std::uint64_t snapshots = 0;
  std::uint64_t resident_bytes = 0;  // graph + retained log + segments
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
               ReplayOptions options, IngestOptions ingest,
               obs::MetricsRegistry& registry);

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
  /// half-applies. Returns the number of records appended. Caller holds
  /// mutex().
  std::size_t append_text(std::string_view text);

  /// Appends one record (validated against the watermark). Caller holds
  /// mutex().
  void append(const LogRecord& record);

  /// Seals the open epoch now, even if short (no-op when empty). Caller
  /// holds mutex().
  void seal();

  /// The always-current run for diagnosis: drains the in-flight event queue
  /// (or, after a stale append, rebuilds by full replay -- `rebuilt` reports
  /// which). The returned BadRun aliases the live graph/engine; it is valid
  /// while the caller holds mutex(). Caller holds mutex().
  std::shared_ptr<const BadRun> ensure_current(bool* rebuilt = nullptr);

  /// One maintenance pass: truncation (drop checkpoint-covered segments
  /// beyond the retention window; all of them under pressure), then
  /// compaction down to the segment watermark. Caller holds mutex().
  void maintain(bool under_pressure);

  /// Writes the bootstrap tier as DPS1 blocks: newest checkpoint (if any)
  /// followed by every resident segment. read_stream_file() decodes it,
  /// tolerating torn tails; a fresh consumer restores from it with
  /// restore_from_checkpoint (state only, as in the warm-session checkpoint
  /// tier). Caller holds mutex().
  void write_bootstrap(std::ostream& out) const;

  [[nodiscard]] IngestStreamStats stats() const;  // caller holds mutex()
  [[nodiscard]] const std::vector<std::shared_ptr<const LogSegment>>&
  segments() const {
    return segments_;
  }

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
  /// Measured footprint: provenance graph + retained log + resident
  /// segments. Refreshed at seal/snapshot/maintenance; readable without
  /// mutex() (the budget ledger reads it from other threads).
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

 private:
  void feed_live(const LogRecord& record);
  void seal_epoch();
  void rebuild_live();
  void update_resident();

  std::string key_;
  Program program_;
  Topology topology_;
  std::optional<Tuple> good_event_;
  std::optional<Tuple> bad_event_;
  ReplayOptions options_;
  IngestOptions ingest_;
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

  // Retained history: the full prefix (DiffProv experiment replays need it)
  // plus the open epoch's start index into it.
  EventLog log_;
  std::size_t open_start_ = 0;
  std::size_t open_records_ = 0;

  // Storage tier.
  std::vector<std::shared_ptr<const LogSegment>> segments_;
  std::uint64_t segment_bytes_ = 0;
  std::uint32_t sealed_epochs_ = 0;
  std::optional<Checkpoint> checkpoint_;
  std::uint32_t checkpoint_epoch_ = 0;  // sealed-epoch count at capture

  IngestStreamStats stats_;
  std::atomic<std::uint64_t> hash_{0xcbf29ce484222325ull};
  std::atomic<LogicalTime> watermark_{0};
  std::atomic<std::uint64_t> resident_bytes_{0};

  obs::Counter& events_counter_;
  obs::Counter& epochs_counter_;
  obs::Gauge& segments_gauge_;
  obs::Counter& checkpoints_counter_;
  obs::Counter& compactions_counter_;
  obs::Counter& compacted_counter_;
  obs::Counter& truncated_segments_counter_;
  obs::Counter& truncated_bytes_counter_;
  obs::Counter& rebuilds_counter_;
  obs::Counter& snapshots_counter_;
  obs::QuantileSketch& snapshot_us_;
};

}  // namespace dp::ingest
