// Warm diagnosis sessions (the serving-path realization of paper §4.8).
//
// A WarmSession owns one problem (program + topology + recorded log) and
// keeps its replayed execution *resident*: the provenance graph and the
// replayed engine from the first query stay in memory, so every later query
// against the same log skips the initial full replay entirely -- the warm
// run is handed to diagnose_problem as the initial bad run, which is sound
// because replay is deterministic (identical graph, identical answer bytes).
//
// On first warm-up the session also captures a Checkpoint of the engine's
// base state. That is the session's cheap tier: when the manager cools a
// session under memory pressure (LRU beyond max_warm), the heavy resident
// run is dropped but the checkpoint stays. Live-state probes ("is this flow
// entry present?") are then served from an engine *restored from the
// checkpoint plus the log suffix after the capture time* -- state
// reconstruction without paying for the full history, exactly the paper's
// "log of tuple updates along with some checkpoints" design. Re-running a
// full diagnosis on a cooled session does replay again (provenance vertex
// times must match the original history for byte-identical answers; a
// checkpoint restore re-bases them), and the metrics make that cost visible:
// dp.service.session.{cold_replays,warm_hits,checkpoint_restores,evictions}.
//
// Engines are single-threaded, so each session carries a mutex: the worker
// pool serializes queries per session while different sessions proceed in
// parallel.
#pragma once

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "diffprov/diffprov.h"
#include "obs/metrics.h"
#include "replay/checkpoint.h"
#include "service/problem.h"

namespace dp::service {

struct SessionStats {
  std::uint64_t queries = 0;        // ensure_warm calls (diagnosis queries)
  std::uint64_t warm_hits = 0;      // served from the resident run
  std::uint64_t cold_replays = 0;   // full replays (first use / after cool)
  std::uint64_t probes = 0;         // live-state probes
  std::uint64_t checkpoint_restores = 0;
};

class WarmSession {
 public:
  WarmSession(std::string key, Problem problem, ReplayOptions options,
              obs::MetricsRegistry& registry);

  /// Per-session serialization: hold this while calling ensure_warm,
  /// probe_live, or running a diagnosis against the returned run.
  [[nodiscard]] std::mutex& mutex() { return mutex_; }

  [[nodiscard]] const std::string& key() const { return key_; }
  [[nodiscard]] const Problem& problem() const { return problem_; }
  [[nodiscard]] std::uint64_t log_hash() const { return log_hash_; }

  /// Returns the resident replayed run, replaying the log first if this is
  /// the session's first query (or its first after cool()). Caller holds
  /// mutex().
  std::shared_ptr<const BadRun> ensure_warm();

  /// True if the resident run is in memory (cheap; caller holds mutex()).
  [[nodiscard]] bool is_warm() const { return run_ != nullptr; }

  /// Measured bytes of the resident provenance graph (the store-backed
  /// columnar footprint), 0 when cooled. Updated at warm-up, cleared by
  /// cool(); readable without mutex() so the manager can total footprints
  /// while workers are mid-query.
  [[nodiscard]] std::uint64_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }

  /// Drops the resident run and probe engine; the checkpoint (if one was
  /// captured) survives. Caller holds mutex().
  void cool();

  /// Is `tuple` live at the end of the recorded execution? Served from the
  /// resident engine when warm; on a cooled session, from an engine restored
  /// from the checkpoint + log suffix (no full replay). Caller holds
  /// mutex().
  bool probe_live(const Tuple& tuple);

  [[nodiscard]] const SessionStats& stats() const { return stats_; }

 private:
  std::string key_;
  Problem problem_;
  ReplayOptions options_;
  std::uint64_t log_hash_ = 0;
  obs::MetricsRegistry* registry_;

  std::mutex mutex_;
  // Resident tier: the first query's replay, kept alive for reuse.
  std::shared_ptr<Engine> engine_;
  std::shared_ptr<ProvenanceRecorder> recorder_;
  std::shared_ptr<const BadRun> run_;
  // Cheap tier: base-state snapshot at quiescence + restored probe engine.
  std::optional<Checkpoint> checkpoint_;
  std::unique_ptr<Engine> probe_engine_;
  // Warm footprint, measured from the replayed graph (see resident_bytes()).
  std::atomic<std::uint64_t> resident_bytes_{0};

  SessionStats stats_;
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
  /// `shards` = number of shard usage slots (clamped to at least 1);
  /// `extra_slots` = additional slots beyond the shards for other resident
  /// tiers (the live-ingest streams publish into slot `shards`): they hold
  /// no nominal share, but their bytes count toward global_usage(), so a
  /// growing ingest tier pushes the warm set toward cooling -- and flips
  /// over_budget(), which the ingest maintenance pass reads as pressure.
  WarmBudgetLedger(std::uint64_t total_bytes, std::size_t shards,
                   std::size_t extra_slots = 0);

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

/// Keyed store of warm sessions with an LRU warm-set budget driven by
/// *measured* footprint: sessions report the resident bytes of their replayed
/// provenance graph (via the store metrics), and least-recently-used sessions
/// are cooled to their checkpoint tier while the warm set exceeds the byte
/// budget (see WarmBudgetLedger) or `max_warm` sessions. The most recently
/// used session is never cooled, and neither is a session a worker is inside
/// (eviction try-locks and skips busy sessions).
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

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t warm_count() const;
  /// Total measured footprint of the warm set (sum of per-session
  /// resident_bytes); also published as dp.service.session.resident_bytes.
  [[nodiscard]] std::uint64_t warm_bytes() const;
  [[nodiscard]] std::vector<std::pair<std::string, SessionStats>> stats() const;

  /// Re-applies the cooling budget. Call after a warm-up changed a session's
  /// footprint (warm-up happens outside the manager lock, so intern-time
  /// enforcement alone would act on stale sizes). Must not be called while
  /// holding any session's mutex.
  ///
  /// Locking contract (the fix for the PR 3 design): the manager mutex is
  /// held only long enough to *snapshot* the candidate list in LRU order --
  /// all footprint accounting (resident_bytes walks) and all cooling happen
  /// outside it, against shared_ptr-pinned sessions, so submitters resolving
  /// sessions never stall behind a budget pass.
  void enforce_budget();

 private:
  std::shared_ptr<WarmSession> intern(const std::string& key,
                                      std::optional<Problem> problem,
                                      std::string& error);
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
