#include "service/session.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "obs/obs.h"
#include "util/hash.h"

namespace dp::service {

WarmSession::WarmSession(std::string key, Problem problem,
                         ReplayOptions options, obs::MetricsRegistry& registry)
    : key_(std::move(key)),
      problem_(std::move(problem)),
      options_(std::move(options)),
      log_hash_(log_content_hash(problem_.log)),
      registry_(&registry) {}

std::shared_ptr<const BadRun> WarmSession::ensure_warm() {
  ++stats_.queries;
  if (run_ != nullptr) {
    ++stats_.warm_hits;
    registry_->counter("dp.service.session.warm_hits").inc();
    return run_;
  }
  DP_SPAN_CAT("dp.service.session.warm_replay", "service");
  ++stats_.cold_replays;
  registry_->counter("dp.service.session.cold_replays").inc();

  ReplayResult replayed =
      replay(problem_.program, problem_.topology, problem_.log, {}, options_);
  engine_ = std::move(replayed.engine);
  recorder_ = std::move(replayed.recorder);

  auto run = std::make_shared<BadRun>();
  // Alias the recorder's graph: the shared_ptr keeps the recorder alive for
  // as long as any query still holds the run, even past a cool().
  run->graph =
      std::shared_ptr<const ProvenanceGraph>(recorder_, &recorder_->graph());
  run->state = std::make_shared<EngineStateView>(engine_);
  run_ = run;

  // First warm-up doubles as checkpoint time: the engine is quiescent here,
  // so the snapshot covers the whole recorded history and probe restores
  // replay an empty suffix.
  if (!checkpoint_) checkpoint_ = Checkpoint::capture(*engine_);

  // Measure what this warm run actually costs to keep resident: the columnar
  // provenance graph (the dominant term now that tuples live once in the
  // interned store). Floor of 1 so warm => nonzero, which is what the
  // manager's budget pass keys on.
  const std::uint64_t measured = recorder_->graph().resident_bytes();
  resident_bytes_.store(measured > 0 ? measured : 1,
                        std::memory_order_relaxed);
  return run_;
}

void WarmSession::cool() {
  if (run_ == nullptr && probe_engine_ == nullptr) return;
  run_.reset();
  recorder_.reset();
  engine_.reset();
  probe_engine_.reset();
  resident_bytes_.store(0, std::memory_order_relaxed);
  registry_->counter("dp.service.session.evictions").inc();
}

bool WarmSession::probe_live(const Tuple& tuple) {
  ++stats_.probes;
  registry_->counter("dp.service.session.probes").inc();
  if (engine_ != nullptr) return engine_->is_live(tuple);
  if (probe_engine_ != nullptr) return probe_engine_->is_live(tuple);
  if (checkpoint_) {
    DP_SPAN_CAT("dp.service.session.checkpoint_restore", "service");
    ++stats_.checkpoint_restores;
    registry_->counter("dp.service.session.checkpoint_restores").inc();
    probe_engine_ =
        restore_from_checkpoint(problem_.program, problem_.topology,
                                *checkpoint_, problem_.log,
                                options_.engine_config);
    return probe_engine_->is_live(tuple);
  }
  // Never queried, so no checkpoint exists yet: warm up fully (this also
  // captures the checkpoint for the session's later cooled life).
  ensure_warm();
  return engine_->is_live(tuple);
}

std::string inline_session_key(const std::string& program_text,
                               const std::string& log_text) {
  const std::uint64_t key_hash =
      hash_mix(fnv1a(program_text), fnv1a(log_text));
  std::ostringstream key;
  key << "inline:" << std::hex << key_hash;
  return key.str();
}

WarmBudgetLedger::WarmBudgetLedger(std::uint64_t total_bytes,
                                   std::size_t shards,
                                   std::size_t extra_slots)
    : total_(total_bytes),
      share_(total_bytes == 0 ? 0
                              : total_bytes / std::max<std::size_t>(1, shards)),
      usage_(std::max<std::size_t>(1, shards) + extra_slots) {}

void WarmBudgetLedger::publish(std::size_t shard, std::uint64_t bytes) {
  usage_[shard % usage_.size()].store(bytes, std::memory_order_relaxed);
}

std::uint64_t WarmBudgetLedger::usage(std::size_t shard) const {
  return usage_[shard % usage_.size()].load(std::memory_order_relaxed);
}

std::uint64_t WarmBudgetLedger::global_usage() const {
  std::uint64_t total = 0;
  for (const auto& slot : usage_) {
    total += slot.load(std::memory_order_relaxed);
  }
  return total;
}

SessionManager::SessionManager(std::size_t max_warm,
                               std::uint64_t warm_bytes_budget,
                               ReplayOptions options,
                               obs::MetricsRegistry& registry)
    : SessionManager(max_warm,
                     std::make_shared<WarmBudgetLedger>(warm_bytes_budget, 1),
                     /*shard_index=*/0, std::move(options), registry) {}

SessionManager::SessionManager(std::size_t max_warm,
                               std::shared_ptr<WarmBudgetLedger> ledger,
                               std::size_t shard_index, ReplayOptions options,
                               obs::MetricsRegistry& registry)
    : max_warm_(max_warm),
      ledger_(std::move(ledger)),
      shard_index_(shard_index),
      options_(std::move(options)),
      registry_(&registry) {}

std::shared_ptr<WarmSession> SessionManager::get_scenario(
    const std::string& name, std::string& error) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(name);
    if (it != sessions_.end()) {
      recency_.remove(name);
      recency_.push_front(name);
      return it->second;
    }
  }
  // Build outside the lock: scenario assembly replays nothing but does parse
  // programs and synthesize logs.
  std::ostringstream err;
  std::optional<Problem> problem = builtin_scenario(name, err);
  if (!problem) {
    error = err.str();
    if (error.empty()) error = "unknown scenario: " + name;
    return nullptr;
  }
  return intern(name, std::move(problem), error);
}

std::shared_ptr<WarmSession> SessionManager::get_inline(
    const std::string& program_text, const std::string& log_text,
    std::string& error) {
  const std::string key = inline_session_key(program_text, log_text);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(key);
    if (it != sessions_.end()) {
      recency_.remove(key);
      recency_.push_front(key);
      return it->second;
    }
  }
  std::optional<Problem> problem;
  try {
    problem = parse_problem(program_text, log_text);
  } catch (const std::exception& e) {
    error = e.what();
    return nullptr;
  }
  return intern(key, std::move(problem), error);
}

std::shared_ptr<WarmSession> SessionManager::intern(
    const std::string& key, std::optional<Problem> problem,
    std::string& error) {
  (void)error;
  std::shared_ptr<WarmSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      it = sessions_
               .emplace(key, std::make_shared<WarmSession>(
                                 key, std::move(*problem), options_,
                                 *registry_))
               .first;
      // Delta, not absolute: with one manager per shard publishing into the
      // same registry, the gauge totals sessions across the whole service.
      registry_->gauge("dp.service.sessions").add(1);
    }
    recency_.remove(key);
    recency_.push_front(key);
    session = it->second;
  }
  // A fresh session is cold (zero footprint), but interning bumps recency,
  // which can change which sessions an over-budget pass would cool.
  enforce_budget();
  return session;
}

void SessionManager::publish_usage(std::uint64_t bytes) {
  ledger_->publish(shard_index_, bytes);
  registry_->gauge("dp.service.session.resident_bytes")
      .set(static_cast<std::int64_t>(ledger_->global_usage()));
}

void SessionManager::enforce_budget() {
  // Snapshot the candidate list (shared_ptr-pinned, LRU order preserved)
  // under the manager lock, then do *all* accounting and cooling outside it:
  // a budget pass never holds the lock submitters need while it walks
  // sessions computing resident_bytes() or waits on a session mutex.
  std::vector<std::shared_ptr<WarmSession>> by_recency;  // front = MRU
  {
    std::lock_guard<std::mutex> lock(mutex_);
    by_recency.reserve(recency_.size());
    for (const std::string& key : recency_) {
      auto it = sessions_.find(key);
      if (it != sessions_.end()) by_recency.push_back(it->second);
    }
  }

  // The warm set's measured footprint: sessions report the resident bytes of
  // their replayed provenance graph (0 when cooled), so the budget tracks
  // what the graphs actually cost rather than assuming every session weighs
  // the same.
  std::uint64_t bytes = 0;
  std::size_t warm = 0;
  for (const auto& session : by_recency) {
    const std::uint64_t b = session->resident_bytes();
    if (b > 0) {
      ++warm;
      bytes += b;
    }
  }
  publish_usage(bytes);

  // Cool while over either budget. The byte check is two-level: this shard
  // cools only when the *global* ledger is over its total AND this shard is
  // past its nominal share -- a shard under its share never pays for a
  // neighbour's appetite, while a hot shard may run past its share for as
  // long as the others leave the global budget unused (the cross-shard
  // rebalance).
  const auto over_budget = [&] {
    return warm > max_warm_ ||
           (ledger_->over_budget() && bytes > ledger_->share());
  };
  // Cool least-recently-used sessions first, sparing the most recently used
  // one (cooling it would defeat the warm tier entirely). try_lock so a
  // session mid-query is never torn down under a worker; it simply stays
  // warm until the next enforcement pass finds it idle.
  for (auto rit = by_recency.rbegin();
       rit != by_recency.rend() && std::next(rit) != by_recency.rend() &&
       over_budget();
       ++rit) {
    WarmSession& session = **rit;
    if (!session.mutex().try_lock()) continue;
    const std::uint64_t b = session.resident_bytes();
    if (session.is_warm()) {
      session.cool();
      --warm;
      bytes -= b;
      publish_usage(bytes);
    }
    session.mutex().unlock();
  }
  publish_usage(bytes);
}

std::uint64_t SessionManager::warm_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t bytes = 0;
  for (const auto& [key, session] : sessions_) {
    bytes += session->resident_bytes();
  }
  return bytes;
}

std::size_t SessionManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sessions_.size();
}

std::size_t SessionManager::warm_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t warm = 0;
  for (const auto& [key, session] : sessions_) {
    if (!session->mutex().try_lock()) {
      ++warm;  // busy implies a worker is inside, which implies warm
      continue;
    }
    if (session->is_warm()) ++warm;
    session->mutex().unlock();
  }
  return warm;
}

std::vector<std::pair<std::string, SessionStats>> SessionManager::stats()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, SessionStats>> out;
  out.reserve(sessions_.size());
  for (const auto& [key, session] : sessions_) {
    std::lock_guard<std::mutex> session_lock(session->mutex());
    out.emplace_back(key, session->stats());
  }
  return out;
}

}  // namespace dp::service
