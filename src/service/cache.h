// LRU result cache for diagnosis queries.
//
// Keys follow the issue's contract: (log content hash, bad-event tuple,
// reference choice, config epoch) -- plus the minimize flag, which changes
// the answer. The key is rendered as one canonical string so equal queries
// collide however they were phrased (scenario name vs. inline log with the
// same bytes).
//
// Two layers live here:
//
//   * ResultCache -- the plain LRU store. Thread-compatible, not
//     thread-safe: callers serialize access themselves (each stripe below
//     owns one under its own mutex).
//   * StripedResultCache -- the concurrent front the sharded service uses.
//     Keys hash to stripes; each stripe has its own mutex, its own LRU slice
//     of the capacity, and its own single-flight table, so lookups against
//     unrelated keys never contend on a shared lock. Single-flight stays
//     per-key: admit() runs the whole hit / coalesce / register-leader
//     decision inside one stripe critical section, and complete() publishes
//     the result *before* dropping the in-flight entry inside another, so a
//     duplicate submitted at any moment either coalesces onto the running
//     leader or hits the cache -- no window admits a second run, exactly the
//     invariant the unsharded service enforced with its global mutex.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace dp::service {

/// Canonical cache-key text. `reference` is the good-event tuple text, or
/// "<auto>" for auto-reference queries.
std::string make_cache_key(std::uint64_t log_hash, const std::string& bad,
                           const std::string& reference, bool minimize,
                           std::uint64_t config_epoch);

/// A finished diagnosis, as served to clients.
struct CachedResult {
  int exit_code = 1;
  std::string out;
  std::string err;
  /// Pre-rendered explain profile of the run that produced this result
  /// (single-line JSON object, empty if the run recorded none). Served
  /// as-is on cache hits: it describes the original execution, and the
  /// per-ticket cache_hit flag tells clients it was not re-measured.
  std::string profile_json;
};

/// A finished result is immutable once published: the cache entry and every
/// ticket it answers (leader, coalesced duplicates, later hits) share it.
using SharedResult = std::shared_ptr<const CachedResult>;

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the cached result (null if absent) and marks the entry
  /// most-recently-used.
  SharedResult get(const std::string& key);

  /// Inserts (or refreshes) an entry, evicting the least-recently-used
  /// entries beyond capacity. A zero-capacity cache stores nothing.
  void put(const std::string& key, SharedResult result);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    SharedResult result;
    std::list<std::string>::iterator lru_pos;
  };

  std::size_t capacity_;
  std::map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::uint64_t evictions_ = 0;
};

/// Concurrent striped LRU + single-flight table (see file comment). The
/// in-flight leader is opaque to this layer (the service stores its JobState
/// there); the callbacks passed to admit() do the attaching so every
/// coalesce happens under the key's stripe lock.
class StripedResultCache {
 public:
  /// `capacity` is the total entry budget, split evenly across `stripes`
  /// (rounded up per stripe; zero stripes clamps to one). When `registry` is
  /// non-null, each stripe publishes its hit count as
  /// dp.service.cache.stripe.<i>.hits.
  StripedResultCache(std::size_t capacity, std::size_t stripes,
                     obs::MetricsRegistry* registry = nullptr);

  enum class Admission : std::uint8_t {
    kHit,        ///< finished result handed out; nothing registered
    kCoalesced,  ///< attached to the in-flight leader via `coalesce`
    kAccepted,   ///< `enqueue_leader`'s job registered as the new leader
    kShed        ///< `enqueue_leader` returned null; nothing registered
  };

  /// Single-flight admission in one stripe critical section. Exactly one of
  /// the callbacks runs, under the stripe lock:
  ///   * cached result present  -> shared into `*hit`, kHit;
  ///   * leader in flight       -> coalesce(leader), kCoalesced;
  ///   * otherwise              -> enqueue_leader(); a non-null return is
  ///     registered as the in-flight leader (kAccepted), null means the
  ///     caller could not enqueue it -- queue full -- and nothing is
  ///     registered (kShed).
  Admission admit(
      const std::string& key, SharedResult* hit,
      const std::function<void(const std::shared_ptr<void>&)>& coalesce,
      const std::function<std::shared_ptr<void>()>& enqueue_leader);

  /// Single-flight completion: publishes the result, then drops the
  /// in-flight entry, inside one stripe critical section (see file comment).
  /// Harmless when the key is not in flight (a leader that skipped its run
  /// after every waiter cancelled already took itself out).
  void complete(const std::string& key, SharedResult result);

  /// Removes and returns the in-flight leader without publishing anything
  /// (the skip-the-run path: every waiter cancelled while queued). Null if
  /// the key was not in flight. After this returns, no further coalesce can
  /// attach to the old leader.
  std::shared_ptr<void> take_inflight(const std::string& key);

  /// Plain lookup (counts as a stripe hit/miss like admit does).
  SharedResult get(const std::string& key);

  [[nodiscard]] std::size_t size() const;        // entries across all stripes
  [[nodiscard]] std::uint64_t evictions() const;  // summed across stripes
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }
  /// Which stripe `key` lives in (exposed for tests).
  [[nodiscard]] std::size_t stripe_of(const std::string& key) const;

 private:
  struct Stripe {
    explicit Stripe(std::size_t capacity) : entries(capacity) {}
    mutable std::mutex mutex;
    ResultCache entries;
    std::map<std::string, std::shared_ptr<void>> inflight;
    obs::Counter* hits = nullptr;  // dp.service.cache.stripe.<i>.hits
  };

  Stripe& stripe_for(const std::string& key) {
    return *stripes_[stripe_of(key)];
  }

  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace dp::service
