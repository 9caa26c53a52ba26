// DiagnosisService: the in-process core of the diffprovd daemon.
//
// The service is *sharded*: queries route to one of N independent shards by
// the hash of their session key (scenario name or inline-problem content
// hash), and each shard owns a complete serving stack -- its own warm-
// session set, its own bounded MPMC queue, its own worker pool, and its own
// ticket table -- so unrelated diagnoses never contend on a shared lock.
// The PR 5 introspection stack located the scaling ceiling of the unsharded
// design in exactly those shared structures: one service mutex on every
// submit/complete, one session-manager mutex (with a full-session-walk
// budget pass after every job), and one result-cache critical section,
// which held multi-client throughput flat however many workers ran.
//
// The three serving-layer mechanisms compose per shard:
//
//   * Warm sessions (session.h): jobs against the same scenario/log reuse
//     the resident replayed run; different scenarios diagnose in parallel,
//     queries against one warm engine serialize on its session mutex. The
//     warm-set byte budget is global but *rebalanced* across shards through
//     a shared ledger: a hot shard borrows budget idle shards leave unused
//     and cools only once the global total is exceeded (WarmBudgetLedger).
//   * Result cache + single-flight (cache.h): striped -- per-stripe mutex,
//     per-stripe LRU slice, per-stripe in-flight table. A repeat of a
//     finished query is answered from the cache without touching a worker;
//     a duplicate of an *in-flight* query coalesces onto the running job's
//     ticket list and shares its one result. Exactly one underlying
//     DiffProv run per distinct key, however many clients ask, whichever
//     shard the key lives in.
//   * Admission control (bounded_queue.h): when a shard's queue is full,
//     submit returns shed=true immediately -- clients get an explicit
//     reject, the service never blocks producers or grows unbounded
//     backlog.
//
// Ticket ids encode their shard in the high bits, so poll/wait/cancel route
// straight to the owning shard with no shared lookup structure at all.
//
// Everything observable lands in the metrics registry (dp.service.*, plus
// per-shard dp.service.shard.<i>.* and per-stripe
// dp.service.cache.stripe.<i>.*) and the default tracer, in the formats
// PR 2's obs_check validates.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ingest/manager.h"
#include "obs/metrics.h"
#include "service/bounded_queue.h"
#include "service/cache.h"
#include "service/diagnose.h"
#include "service/session.h"
#include "service/slowlog.h"

namespace dp::service {

struct ServiceConfig {
  /// Independent shards (clamped to [1, 32]): each gets its own session
  /// set, queue, and worker pool, keyed by scenario/log hash. One shard
  /// reproduces the PR 3 single-lane behaviour exactly.
  std::size_t shards = 1;
  /// Worker threads *per shard*.
  std::size_t workers = 4;
  /// Admission-control bound *per shard*: jobs waiting for a worker
  /// (coalesced duplicates don't occupy slots).
  std::size_t queue_capacity = 64;
  /// Sessions allowed to keep their replayed run resident, service-wide;
  /// each shard enforces its slice (at least one per shard).
  std::size_t max_warm_sessions = 8;
  /// Byte budget for the warm set, service-wide, measured against each
  /// session's resident provenance-graph footprint
  /// (dp.service.session.resident_bytes). Shards spend it through a shared
  /// ledger -- a hot shard may exceed its nominal share while other shards
  /// leave the budget unused -- and LRU sessions are cooled to their
  /// checkpoint tier while the global total is exceeded. 0 = no byte budget
  /// (session-count cap only).
  std::uint64_t warm_bytes_budget = 512ull << 20;
  /// Total result-cache entries, split across `cache_stripes`.
  std::size_t cache_capacity = 256;
  /// Lock stripes for the result cache (clamped to at least 1).
  std::size_t cache_stripes = 8;
  /// Bumped by the operator when anything outside the key changes (program
  /// semantics, engine version): old cache entries stop matching.
  std::uint64_t config_epoch = 0;
  /// Metrics sink; nullptr = obs::default_registry().
  obs::MetricsRegistry* metrics = nullptr;
  /// Replay knobs shared by every session (engine_config.metrics is pointed
  /// at the service registry when unset).
  ReplayOptions replay;
  /// Live-ingest stream knobs (epoch size, checkpoint cadence, compaction
  /// watermark, truncation retention), shared by every stream this service
  /// opens. Ingest resident bytes are billed against `warm_bytes_budget`
  /// through the shared ledger; the over-budget signal drives pressure
  /// truncation on the watchdog tick.
  ingest::IngestOptions ingest;
  /// Watchdog deadline: a worker busy on one job longer than this is
  /// counted in the dp.service.worker.stuck gauge and triggers one flight-
  /// recorder dump per stuck episode. Zero disables the stuck check (the
  /// watchdog thread still runs to refresh the flight clock).
  std::chrono::milliseconds worker_deadline{10000};
  /// Watchdog scan period (also the flight-recorder clock resolution under
  /// an otherwise-idle service).
  std::chrono::milliseconds watchdog_interval{100};
  /// Test hook: runs in the worker thread after a job is marked running and
  /// before it diagnoses. Lets tests hold workers to fill the queue
  /// deterministically.
  std::function<void()> on_job_start;
  /// Slow-query capture floor, in milliseconds: a job whose exec time
  /// exceeds max(slow_ms, slow_factor x the live p99 from the exec-latency
  /// sketch) is journaled with its phase profile, flight-recorder snapshot,
  /// trace id, and profiler slice (slowlog.h; served at /slowz). 0 makes the
  /// threshold purely adaptive (and captures the very first query, which CI
  /// uses as a forced-slow smoke); negative disables capture.
  double slow_ms = 1000;
  /// The k in the adaptive threshold k x live-p99.
  double slow_factor = 3;
  /// Journal entries retained *per shard* (oldest fall off).
  std::size_t slow_journal_capacity = 32;
};

/// One diagnosis request, all-text (what arrives off the wire).
struct Query {
  /// Built-in scenario name; empty means an inline problem follows.
  std::string scenario;
  std::string program_text;
  std::string log_text;
  /// Diagnose against a live ingest stream (open_stream/ingest) instead of a
  /// recorded scenario or inline log: the job snapshots the stream's
  /// always-current graph -- no replay on the hot path. Mutually exclusive
  /// with `scenario`/`program_text`.
  std::string stream;
  /// Event of interest, tuple text; empty = the scenario's default.
  std::string bad;
  /// Reference event, tuple text; empty = scenario default unless
  /// auto_reference.
  std::string good;
  bool auto_reference = false;
  bool minimize = false;
  /// Benchmarking: always run, never read or write the cache or coalesce.
  bool bypass_cache = false;
  /// Client-minted trace context (0 = none): the worker installs it for the
  /// job's scope so every span of the diagnosis carries this id.
  std::uint64_t trace_id = 0;
};

enum class QueryState : std::uint8_t { kQueued, kRunning, kDone, kCancelled };

std::string to_string(QueryState state);

struct QueryStatus {
  QueryState state = QueryState::kQueued;
  bool cache_hit = false;
  bool coalesced = false;
  /// Valid when state == kDone.
  CachedResult result;
  double queue_us = 0;
  double exec_us = 0;
};

struct SubmitOutcome {
  bool accepted = false;
  /// Rejected by admission control (queue full): retry later.
  bool shed = false;
  /// Ticket id for poll/wait/cancel, valid when accepted. The owning shard
  /// lives in the high bits; ids stay below 2^53 so they survive JSON
  /// number round-trips.
  std::uint64_t id = 0;
  /// Parse/validation failure (bad scenario, malformed tuple, ...).
  std::string error;

  [[nodiscard]] bool ok() const { return accepted; }
};

/// Result of an ingest control call (open_stream / ingest): the error, or a
/// post-call snapshot of the stream's tiering state.
struct IngestOutcome {
  bool ok = false;
  std::string error;
  /// Records this call appended (0 for open_stream).
  std::size_t accepted = 0;
  ingest::IngestStreamStats stream;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t runs = 0;  // underlying DiffProv executions
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t coalesced = 0;
  std::size_t queue_depth = 0;     // summed across shards
  std::size_t queue_capacity = 0;  // per shard
  std::size_t cache_size = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t sessions = 0;
  std::size_t warm_sessions = 0;
  std::uint64_t warm_resident_bytes = 0;  // measured warm-set footprint
  std::size_t shards = 1;
  std::vector<std::size_t> shard_queue_depths;  // one entry per shard
  std::vector<std::pair<std::string, SessionStats>> per_session;
  // Live-ingest tier, summed across streams (per_stream has the breakdown).
  std::size_t ingest_streams = 0;
  std::uint64_t ingest_events = 0;
  std::uint64_t ingest_epochs = 0;
  std::uint64_t ingest_segments = 0;
  std::uint64_t ingest_segments_compacted = 0;
  std::uint64_t ingest_truncated_bytes = 0;
  std::uint64_t ingest_resident_bytes = 0;
  std::vector<std::pair<std::string, ingest::IngestStreamStats>> per_stream;

  [[nodiscard]] std::string to_text() const;
};

class DiagnosisService {
 public:
  explicit DiagnosisService(ServiceConfig config = {});
  ~DiagnosisService();

  DiagnosisService(const DiagnosisService&) = delete;
  DiagnosisService& operator=(const DiagnosisService&) = delete;

  /// Validates and admits a query. Cache hits return an already-kDone
  /// ticket; duplicates of an in-flight query coalesce onto it; otherwise a
  /// job is enqueued on the query's shard -- or shed if that shard's queue
  /// is full.
  SubmitOutcome submit(const Query& query);

  /// Non-blocking status; nullopt for unknown ids.
  std::optional<QueryStatus> poll(std::uint64_t id) const;

  /// Blocks until the ticket reaches kDone or kCancelled.
  std::optional<QueryStatus> wait(std::uint64_t id);

  /// Cancels a still-queued ticket (running/finished ones are too late).
  bool cancel(std::uint64_t id);

  /// Live-state probe: is `tuple_text` live at the end of the scenario's
  /// recorded execution? Served from the session's warm engine or its
  /// checkpoint tier -- never a full replay once the session has one.
  /// `trace_id` (0 = none) scopes the probe's spans to the client's trace.
  [[nodiscard]] SubmitOutcome probe(const std::string& scenario,
                                    const std::string& tuple_text, bool& live,
                                    std::uint64_t trace_id = 0);

  /// Opens (or idempotently returns) a live ingest stream. `scenario` seeds
  /// the stream with a built-in problem's program/topology and diagnosis
  /// defaults -- with the recorded log deliberately stripped: a live
  /// stream's history arrives only through ingest(). Alternatively,
  /// `program_text` opens a stream over an inline NDlog program.
  IngestOutcome open_stream(const std::string& name,
                            const std::string& scenario,
                            const std::string& program_text = "");

  /// Appends one batch of events (EventLog text form) to a live stream and
  /// feeds them straight into its resident engine; `seal` forces an epoch
  /// boundary after the batch. The whole batch is validated before any
  /// record applies, so a malformed or out-of-order batch never
  /// half-applies.
  IngestOutcome ingest(const std::string& name, const std::string& events_text,
                       bool seal = false);

  /// The live-ingest stream registry (tests and benches reach streams
  /// directly; queries go through submit with Query::stream).
  [[nodiscard]] ingest::IngestManager& ingest_streams() { return *ingest_; }

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] obs::MetricsRegistry& metrics() { return *registry_; }
  /// The merged slow-query journal (all shards, capture order) as the
  /// /slowz JSON document; also returned by the `slowz` NDJSON op and
  /// dumped to stderr by the watchdog/panic paths.
  [[nodiscard]] std::string slowz_json() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  /// Which shard a scenario (or inline session key) routes to; exposed for
  /// tests and for operators reading per-shard metrics.
  [[nodiscard]] std::size_t shard_of_key(const std::string& session_key) const;

  /// Stops accepting, then either drains queued jobs (drain=true) or
  /// cancels them, and joins the workers. Idempotent; the destructor drains.
  void shutdown(bool drain = true);

 private:
  struct Ticket {
    QueryState state = QueryState::kQueued;
    bool cache_hit = false;
    bool coalesced = false;
    CachedResult result;
    std::chrono::steady_clock::time_point submitted_at;
    double queue_us = 0;
    double exec_us = 0;
  };

  struct JobState {
    std::string key;
    std::size_t shard = 0;
    std::shared_ptr<WarmSession> session;
    /// Set instead of `session` for live-stream queries (Query::stream).
    std::shared_ptr<ingest::IngestStream> stream;
    DiagnoseSpec spec;
    bool cacheable = true;
    /// Trace context of the *first* submitter; coalesced duplicates share
    /// the leader's trace (their tickets still report coalesced=true).
    std::uint64_t trace_id = 0;
    /// Guards ticket_ids: the stripe's coalesce callback appends while the
    /// worker snapshots. (Ticket *state* lives under the shard mutex.)
    std::mutex ids_mutex;
    std::vector<std::uint64_t> ticket_ids;  // grows as duplicates coalesce
  };

  /// Per-worker state the watchdog scans without locks.
  struct WorkerState {
    /// monotonic_micros() when the current job started; 0 = idle.
    std::atomic<std::uint64_t> busy_since_us{0};
  };

  /// One independent serving lane: session set, queue, workers, tickets.
  struct Shard {
    Shard(std::size_t index, std::size_t max_warm,
          std::shared_ptr<WarmBudgetLedger> ledger, ReplayOptions options,
          obs::MetricsRegistry& registry, std::size_t queue_capacity,
          std::size_t slow_journal_capacity);

    const std::size_t index;
    SessionManager sessions;
    BoundedQueue<std::shared_ptr<JobState>> queue;
    obs::Gauge& queue_depth;  // dp.service.shard.<i>.queue_depth
    /// Slow queries captured by this shard's workers (slowlog.h).
    SlowQueryJournal slow_journal;

    mutable std::mutex mutex;  // tickets + next_seq
    std::condition_variable done_cv;
    std::map<std::uint64_t, Ticket> tickets;
    std::uint64_t next_seq = 1;

    std::vector<std::thread> workers;
    std::vector<std::unique_ptr<WorkerState>> worker_states;
  };

  // Shard index lives in bits [48, 53) of a ticket id, the sequence number
  // below it: ids stay unique across shards, route without shared state,
  // and remain exact in a JSON double.
  static constexpr std::uint64_t kShardShift = 48;
  static constexpr std::size_t kMaxShards = 32;

  static std::uint64_t make_ticket_id(std::size_t shard, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(shard) << kShardShift) | seq;
  }
  /// The owning shard, or nullptr for ids no shard issued.
  Shard* shard_for_id(std::uint64_t id) const;

  void worker_loop(Shard& shard, std::size_t worker_index);
  void watchdog_loop();
  void run_job(Shard& shard, const std::shared_ptr<JobState>& job);
  /// Files a slow-query journal entry on the worker thread (run_job calls
  /// it after rendering the phase profile).
  void capture_slow(Shard& shard, const JobState& job, double exec_us,
                    double threshold_us, const std::string& profile_json,
                    std::uint64_t job_start_us);
  /// One "[dp:SLOWZ] <reason>: <json>" line on stderr (watchdog/panic
  /// paths, next to the flight recorder's [dp:FLIGHTREC] dump).
  void dump_slowz_to_stderr(const std::string& reason) const;
  /// Creates a kQueued ticket on `shard`; returns its id. Caller must not
  /// hold the shard mutex.
  std::uint64_t allocate_ticket(Shard& shard,
                                std::chrono::steady_clock::time_point now);
  void complete_locked(Shard& shard, std::uint64_t id,
                       const CachedResult& result, double exec_us,
                       std::chrono::steady_clock::time_point now);
  void trim_tickets_locked(Shard& shard);
  /// Snapshot of the job's ticket list (ids_mutex held briefly).
  static std::vector<std::uint64_t> ticket_ids_of(JobState& job);
  static QueryStatus status_of(const Ticket& ticket);

  ServiceConfig config_;
  obs::MetricsRegistry* registry_;
  ReplayOptions replay_options_;

  std::shared_ptr<WarmBudgetLedger> ledger_;
  std::vector<std::unique_ptr<Shard>> shards_;
  StripedResultCache cache_;
  /// Live-ingest streams; publishes resident bytes into the ledger's extra
  /// slot (index = shard count). Created before the watchdog thread, which
  /// drives its maintenance pass.
  std::unique_ptr<ingest::IngestManager> ingest_;

  std::atomic<bool> accepting_{true};
  std::mutex shutdown_mutex_;
  bool shutdown_ = false;

  std::thread watchdog_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool watchdog_stop_ = false;

  obs::Counter& submitted_;
  obs::Counter& completed_;
  obs::Counter& shed_;
  obs::Counter& cancelled_;
  obs::Counter& runs_;
  obs::Counter& cache_hits_;
  obs::Counter& cache_misses_;
  obs::Counter& coalesced_;
  obs::Gauge& queue_depth_;  // total across shards (delta-maintained)
  obs::Gauge& worker_stuck_;
  obs::Counter& worker_panics_;
  obs::Counter& slow_captured_;
  obs::QuantileSketch& queue_wait_us_;
  /// Also feeds the adaptive slow-query threshold (its live p99).
  obs::QuantileSketch& exec_us_;
};

}  // namespace dp::service
