// Warm diagnosis sessions (the serving-path realization of paper §4.8).
//
// A WarmSession owns one problem (program + topology + event log) and keeps
// the engine that replayed its log *resident*: every later query against the
// same log skips the initial full replay -- the warm run is handed to
// diagnose_problem as the initial bad run, which is sound because replay is
// deterministic (identical graph, identical answer bytes).
//
// A session's log may grow. A live stream is a session opened over an empty
// log; append() feeds each record straight into the resident engine, so a
// query drains the in-flight tail instead of replaying history. The engine's
// two seq bands (runtime/engine.h) make that byte-identical to a batch replay
// of the same prefix: an append at time t first advances the engine to t-1,
// then schedules, and a drain runs to quiescence as batch replay does.
// Appends keep watermark order; one at or before a drained engine's clock
// would have to be processed in the past, so it cools the session instead
// and the next query replays the log -- warm-session cost, never a wrong
// answer.
//
// On first warm-up the session also captures a Checkpoint of the engine's
// base state: the cheap tier that survives cooling (LRU beyond max_warm or
// the byte budget), which drops the resident run but keeps the log. Live-
// state probes on a cooled session restore an engine from the checkpoint
// plus the log suffix -- the paper's "log of tuple updates along with some
// checkpoints". An append drops the checkpoint, so a later probe warms from
// the full log. A full diagnosis on a cooled session replays again:
// provenance vertex times must match the original history, and a restore
// re-bases them. Metrics: dp.service.session.{cold_replays,warm_hits,
// checkpoint_restores,evictions}; a stream reports under dp.ingest.*.
//
// Engines are single-threaded, so each session carries a mutex: queries and
// appends serialize per session while different sessions proceed in
// parallel. content_hash() and resident_bytes() are readable without it.
#pragma once

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diffprov/diffprov.h"
#include "obs/metrics.h"
#include "replay/checkpoint.h"
#include "service/problem.h"

namespace dp::service {

struct SessionStats {
  std::uint64_t queries = 0;       // ensure_warm calls (diagnosis queries)
  std::uint64_t warm_hits = 0;     // served from the resident run
  std::uint64_t cold_replays = 0;  // served after a full replay of the log
  /// Replays of a session that had been warm: the re-warm after a budget
  /// cool or a stale append.
  std::uint64_t live_rebuilds = 0;
  std::uint64_t probes = 0;  // live-state probes
  std::uint64_t checkpoint_restores = 0;
  std::uint64_t events = 0;          // records appended after open
  std::uint64_t resident_bytes = 0;  // WarmSession::resident_bytes()
  LogicalTime watermark = 0;         // newest record time in the log
};

/// Session key of the live stream `name`: "ingest:<name>". Built-in
/// scenario names and inline keys ("inline:<hex>") never take this form.
inline constexpr std::string_view kStreamKeyPrefix = "ingest:";
std::string stream_session_key(const std::string& name);

class WarmSession {
 public:
  /// `stream`: a live stream, which reports under dp.ingest.* and starts
  /// warm, so appends feed its engine from the first record.
  WarmSession(std::string key, Problem problem, ReplayOptions options,
              obs::MetricsRegistry& registry, bool stream = false);

  /// Per-session serialization: hold this while calling any mutating
  /// member or running a diagnosis against the run ensure_warm returned.
  [[nodiscard]] std::mutex& mutex() { return mutex_; }

  [[nodiscard]] const std::string& key() const { return key_; }
  [[nodiscard]] bool is_stream() const { return stream_; }
  /// Program, topology and default events are fixed at open; the log grows
  /// under mutex().
  [[nodiscard]] const Problem& problem() const { return problem_; }

  /// Running hash of the log (op, time and interned ref per record); every
  /// append advances it. Result-cache keys mix it with the session key.
  /// Readable without mutex().
  [[nodiscard]] std::uint64_t content_hash() const {
    return hash_.load(std::memory_order_relaxed);
  }

  /// Appends one batch of records in EventLog text form ("+ tuple @ t" per
  /// line). The whole batch is validated -- parse (line-numbered errors) and
  /// watermark order -- before any record applies, so a bad batch never
  /// half-applies. Returns the number of records appended. Caller holds
  /// mutex().
  std::size_t append_text(std::string_view text);

  /// Appends one record (validated against the watermark) and, when warm,
  /// feeds it to the resident engine. Caller holds mutex().
  void append(const LogRecord& record);

  /// Returns the resident run: a cold session replays its log first
  /// (`replayed` reports which), a warm one drains the records appended
  /// since the last call. The run aliases the resident engine and graph; it
  /// is valid while the caller holds mutex(). Caller holds mutex().
  std::shared_ptr<const BadRun> ensure_warm(bool* replayed = nullptr);

  /// True if the resident run is in memory (cheap; caller holds mutex()).
  [[nodiscard]] bool is_warm() const { return engine_ != nullptr; }

  /// Measured footprint of the warm run -- its provenance graph plus the
  /// log it replays -- and 0 when cooled. Refreshed at warm-up, per appended
  /// batch and per drain; readable without mutex() so the manager can total
  /// footprints while workers are mid-query.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  /// Drops the resident run and probe engine; the log and the checkpoint
  /// (if one was captured) survive. Caller holds mutex().
  void cool();

  /// Is `tuple` live at the end of the recorded execution? Served from the
  /// resident engine when warm; on a cooled session, from an engine restored
  /// from the checkpoint + log suffix (no full replay). Caller holds
  /// mutex().
  bool probe_live(const Tuple& tuple);

  [[nodiscard]] SessionStats stats() const;  // caller holds mutex()

 private:
  void note_record(const LogRecord& record);
  void feed(const LogRecord& record);
  void replay_log();
  void drop_run();
  void update_resident();

  std::string key_;
  Problem problem_;
  ReplayOptions options_;
  obs::MetricsRegistry* registry_;
  bool stream_;

  std::mutex mutex_;
  // Resident tier: the engine that replayed (and is fed) the log.
  std::shared_ptr<Engine> engine_;
  std::shared_ptr<ProvenanceRecorder> recorder_;
  std::shared_ptr<const BadRun> run_;
  bool warmed_ = false;  // a run was ever resident: the next replay rebuilds
  bool fed_ = false;     // records fed since the last drain
  // Cheap tier: base-state snapshot at quiescence + restored probe engine.
  std::optional<Checkpoint> checkpoint_;
  std::unique_ptr<Engine> probe_engine_;

  SessionStats stats_;
  std::atomic<std::uint64_t> hash_{0xcbf29ce484222325ull};
  std::atomic<std::uint64_t> resident_bytes_{0};
  obs::Counter* events_counter_ = nullptr;  // dp.ingest.events, streams only
};

/// Canonical key for an inline problem (program + log text): "inline:<hex>"
/// over the content hash. Exposed so the sharded service can route a query
/// to its shard before (and without) creating the session.
std::string inline_session_key(const std::string& program_text,
                               const std::string& log_text);

/// Shared byte-budget ledger for the sharded warm tier. Each shard's
/// SessionManager publishes its measured warm bytes into its `usage` slot,
/// so cooling spends one *global* budget across shards: a shard whose warm
/// set outgrows its nominal share (total/shards) keeps it for as long as the
/// other shards leave the global budget unused -- the lightweight
/// cross-shard rebalance -- and starts cooling only once the global total is
/// exceeded *and* it is above its own share. Shards never lock each other;
/// the ledger is relaxed atomics and the worst case of the race is one
/// enforcement pass of staleness.
class WarmBudgetLedger {
 public:
  /// `total_bytes` = the service-wide warm budget (0 = unlimited);
  /// `shards` = number of shard usage slots (clamped to at least 1).
  WarmBudgetLedger(std::uint64_t total_bytes, std::size_t shards);

  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// A shard's nominal slice of the budget (total/shards; 0 = unlimited).
  [[nodiscard]] std::uint64_t share() const { return share_; }
  void publish(std::size_t shard, std::uint64_t bytes);
  [[nodiscard]] std::uint64_t usage(std::size_t shard) const;
  [[nodiscard]] std::uint64_t global_usage() const;
  /// Over the global budget right now? (Always false when unlimited.)
  [[nodiscard]] bool over_budget() const {
    return total_ != 0 && global_usage() > total_;
  }

 private:
  std::uint64_t total_;
  std::uint64_t share_;
  std::vector<std::atomic<std::uint64_t>> usage_;
};

/// Keyed store of warm sessions -- scenarios, inline problems and live
/// streams -- with an LRU warm-set budget driven by *measured* footprint:
/// sessions report the resident bytes of their warm run, and
/// least-recently-used sessions are cooled to their checkpoint tier while
/// the warm set exceeds the byte budget (see WarmBudgetLedger) or
/// `max_warm` sessions. The most recently used session is never cooled, and
/// neither is a session a worker is inside (eviction try-locks and skips
/// busy sessions).
class SessionManager {
 public:
  /// Standalone manager (the single-shard service and the tests): owns a
  /// private one-slot ledger with `warm_bytes_budget` as its total.
  SessionManager(std::size_t max_warm, std::uint64_t warm_bytes_budget,
                 ReplayOptions options, obs::MetricsRegistry& registry);

  /// Sharded manager: budget decisions run against the shared `ledger`,
  /// publishing this shard's usage into slot `shard_index`.
  SessionManager(std::size_t max_warm, std::shared_ptr<WarmBudgetLedger> ledger,
                 std::size_t shard_index, ReplayOptions options,
                 obs::MetricsRegistry& registry);

  /// Session for a built-in scenario; creates it on first use. Unknown
  /// scenario: returns nullptr and sets `error`.
  std::shared_ptr<WarmSession> get_scenario(const std::string& name,
                                            std::string& error);

  /// Session for an inline problem (program + log text, keyed by content
  /// hash). Malformed input: returns nullptr and sets `error`.
  std::shared_ptr<WarmSession> get_inline(const std::string& program_text,
                                          const std::string& log_text,
                                          std::string& error);

  /// Opens the live stream `name` over `problem`'s program, topology and
  /// default events -- its log is dropped: a stream's history arrives only
  /// through append() -- or returns the open stream as-is (idempotent open;
  /// later problems are ignored).
  std::shared_ptr<WarmSession> open_stream(const std::string& name,
                                           Problem problem);

  /// The open stream `name`, or nullptr.
  std::shared_ptr<WarmSession> find_stream(const std::string& name);

  /// Total measured footprint of the warm set (sum of per-session
  /// resident_bytes); also published as dp.service.session.resident_bytes.
  [[nodiscard]] std::uint64_t warm_bytes() const;
  /// Every session's stats, in key order. Locks each session in turn, never
  /// while holding the manager lock.
  [[nodiscard]] std::vector<std::pair<std::string, SessionStats>> stats() const;

  /// Re-applies the cooling budget. Call after a warm-up or an append
  /// changed a session's footprint (both happen outside the manager lock,
  /// so intern-time enforcement alone would act on stale sizes). Must not be
  /// called while holding any session's mutex.
  ///
  /// Locking contract (the fix for the PR 3 design): the manager mutex is
  /// held only long enough to *snapshot* the candidate list in LRU order --
  /// all footprint accounting (resident_bytes walks) and all cooling happen
  /// outside it, against shared_ptr-pinned sessions, so submitters resolving
  /// sessions never stall behind a budget pass.
  void enforce_budget();

 private:
  /// The session under `key` if it is of the asked kind, moved to the front
  /// of the LRU order; else nullptr.
  std::shared_ptr<WarmSession> find(const std::string& key, bool stream);
  /// The session under `key`, created from `problem` unless one exists,
  /// marked most recently used; then re-applies the budget.
  std::shared_ptr<WarmSession> intern(const std::string& key, Problem problem,
                                      bool stream);
  /// Publishes `bytes` to the ledger and mirrors the *global* usage into the
  /// dp.service.session.resident_bytes gauge.
  void publish_usage(std::uint64_t bytes);

  std::size_t max_warm_;
  std::shared_ptr<WarmBudgetLedger> ledger_;
  std::size_t shard_index_;
  ReplayOptions options_;
  obs::MetricsRegistry* registry_;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<WarmSession>> sessions_;
  std::list<std::string> recency_;  // front = most recently used
};

}  // namespace dp::service
