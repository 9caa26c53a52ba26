#include "service/session.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"
#include "util/hash.h"

namespace dp::service {
namespace {

void check_order(LogicalTime time, LogicalTime watermark) {
  if (time < watermark) {
    throw std::runtime_error("ingest: out-of-order event at t=" +
                             std::to_string(time) +
                             " behind stream watermark t=" +
                             std::to_string(watermark));
  }
}

}  // namespace

std::string stream_session_key(const std::string& name) {
  return std::string(kStreamKeyPrefix) + name;
}

WarmSession::WarmSession(std::string key, Problem problem,
                         ReplayOptions options, obs::MetricsRegistry& registry,
                         bool stream)
    : key_(std::move(key)),
      problem_(std::move(problem)),
      options_(std::move(options)),
      registry_(&registry),
      stream_(stream) {
  for (const LogRecord& record : problem_.log.records()) note_record(record);
  if (!stream_) return;
  // A stream's series exist from its open, so they read 0 before any event.
  events_counter_ = &registry.counter("dp.ingest.events");
  registry.counter("dp.ingest.live_rebuilds");
  registry.counter("dp.ingest.snapshots");
  registry.sketch("dp.ingest.snapshot_us");
  replay_log();
}

void WarmSession::note_record(const LogRecord& record) {
  const std::uint64_t mixed =
      hash_mix(hash_mix(hash_mix(hash_.load(std::memory_order_relaxed),
                                 static_cast<std::uint64_t>(record.op)),
                        static_cast<std::uint64_t>(record.time)),
               static_cast<std::uint64_t>(record.tuple_ref));
  hash_.store(mixed, std::memory_order_relaxed);
  stats_.watermark = std::max(stats_.watermark, record.time);
}

std::size_t WarmSession::append_text(std::string_view text) {
  // Validate the whole batch before applying any of it: parse errors carry
  // the line number (EventLog::from_text), order errors the offending time.
  const EventLog batch = EventLog::from_text(text);
  LogicalTime previous = stats_.watermark;
  for (const LogRecord& record : batch.records()) {
    check_order(record.time, previous);
    previous = record.time;
  }
  for (const LogRecord& record : batch.records()) append(record);
  update_resident();
  return batch.size();
}

void WarmSession::append(const LogRecord& record) {
  check_order(record.time, stats_.watermark);
  if (engine_ != nullptr) feed(record);
  problem_.log.append(record);
  note_record(record);
  ++stats_.events;
  if (events_counter_ != nullptr) events_counter_->inc();
}

void WarmSession::feed(const LogRecord& record) {
  // A drained engine may have run past this record's time: processing it
  // now would order it after derivations a batch replay puts behind it.
  // Cool instead; the next query replays the log. An engine that has
  // processed nothing (a stream warmed from its empty log) is never ahead.
  if (engine_->stats().events_processed != 0 &&
      record.time <= engine_->now()) {
    drop_run();
    return;
  }
  // Batch equivalence (see header): advance to t-1 so every earlier event's
  // consequences with time < t are settled, then schedule at t. The
  // external seq band orders this event before any equal-time derivation.
  // Only advance when the engine is actually behind: a run of same-time
  // appends then stays queued and drains in one run_until (at the next
  // advance or query), instead of paying a run_until + metrics publish per
  // append.
  if (record.time > 0 && engine_->now() < record.time - 1) {
    engine_->run_until(record.time - 1);
  }
  schedule_record(*engine_, record);
  fed_ = true;
}

std::shared_ptr<const BadRun> WarmSession::ensure_warm(bool* replayed) {
  const auto started = std::chrono::steady_clock::now();
  ++stats_.queries;
  const bool cold = engine_ == nullptr;
  if (cold) {
    ++stats_.cold_replays;
    if (warmed_) {
      ++stats_.live_rebuilds;
      if (stream_) registry_->counter("dp.ingest.live_rebuilds").inc();
    }
    if (!stream_) registry_->counter("dp.service.session.cold_replays").inc();
    replay_log();
  } else {
    ++stats_.warm_hits;
    if (!stream_) registry_->counter("dp.service.session.warm_hits").inc();
    if (fed_) {
      engine_->run();  // drain the records appended since the last query
      fed_ = false;
      update_resident();
    }
  }
  if (stream_) {
    // The previous query's lookups on the resident graph publish here too.
    recorder_->graph().publish_metrics(*registry_);
    registry_->counter("dp.ingest.snapshots").inc();
    registry_->sketch("dp.ingest.snapshot_us")
        .observe(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - started)
                     .count());
  }
  if (replayed != nullptr) *replayed = cold;
  return run_;
}

void WarmSession::replay_log() {
  DP_SPAN_CAT("dp.service.session.warm_replay", "service");
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
  run_ = std::move(run);
  warmed_ = true;
  update_resident();
}

void WarmSession::drop_run() {
  run_.reset();
  recorder_.reset();
  engine_.reset();
  fed_ = false;
  update_resident();
}

void WarmSession::update_resident() {
  // What the warm run keeps resident: the columnar provenance graph (the
  // dominant term now that tuples live once in the interned store) plus the
  // log it replays; both are O(1) reads. Floor of 1 so warm => nonzero,
  // which is what the manager's budget pass keys on.
  std::uint64_t bytes = 0;
  if (recorder_ != nullptr) {
    bytes = std::max<std::uint64_t>(
        1, recorder_->graph().resident_bytes() + problem_.log.byte_size());
  }
  const std::uint64_t before =
      resident_bytes_.exchange(bytes, std::memory_order_relaxed);
  if (stream_ && bytes != before) {
    registry_->gauge("dp.ingest.resident_bytes")
        .add(static_cast<std::int64_t>(bytes) -
             static_cast<std::int64_t>(before));
  }
}

void WarmSession::cool() {
  if (engine_ == nullptr) return;
  drop_run();
  registry_->counter("dp.service.session.evictions").inc();
}

bool WarmSession::probe_live(const Tuple& tuple) {
  ++stats_.probes;
  registry_->counter("dp.service.session.probes").inc();
  // A cooled or never-queried session replays its log, as a query would.
  if (engine_ == nullptr) ensure_warm();
  return engine_->is_live(tuple);
}

SessionStats WarmSession::stats() const {
  SessionStats snapshot = stats_;
  snapshot.resident_bytes = resident_bytes();
  return snapshot;
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
                                   std::size_t shards)
    : total_(total_bytes),
      share_(total_bytes == 0 ? 0
                              : total_bytes / std::max<std::size_t>(1, shards)),
      usage_(std::max<std::size_t>(1, shards)) {}

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
      registry_(&registry) {
  // The stream gauges exist (at 0) before any stream opens.
  registry.gauge("dp.ingest.streams");
  registry.gauge("dp.ingest.resident_bytes");
}

std::shared_ptr<WarmSession> SessionManager::find(const std::string& key,
                                                  bool stream) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(key);
  if (it == sessions_.end() || it->second->is_stream() != stream) {
    return nullptr;
  }
  recency_.remove(key);
  recency_.push_front(key);
  return it->second;
}

std::shared_ptr<WarmSession> SessionManager::get_scenario(
    const std::string& name, std::string& error) {
  if (auto session = find(name, /*stream=*/false)) return session;
  // Build outside the lock: scenario assembly replays nothing but does parse
  // programs and synthesize logs.
  std::ostringstream err;
  std::optional<Problem> problem = builtin_scenario(name, err);
  if (!problem) {
    error = err.str();
    if (error.empty()) error = "unknown scenario: " + name;
    return nullptr;
  }
  return intern(name, std::move(*problem), /*stream=*/false);
}

std::shared_ptr<WarmSession> SessionManager::get_inline(
    const std::string& program_text, const std::string& log_text,
    std::string& error) {
  const std::string key = inline_session_key(program_text, log_text);
  if (auto session = find(key, /*stream=*/false)) return session;
  std::optional<Problem> problem;
  try {
    problem = parse_problem(program_text, log_text);
  } catch (const std::exception& e) {
    error = e.what();
    return nullptr;
  }
  return intern(key, std::move(*problem), /*stream=*/false);
}

std::shared_ptr<WarmSession> SessionManager::open_stream(
    const std::string& name, Problem problem) {
  const std::string key = stream_session_key(name);
  if (auto session = find(key, /*stream=*/true)) return session;
  problem.log = EventLog();
  return intern(key, std::move(problem), /*stream=*/true);
}

std::shared_ptr<WarmSession> SessionManager::find_stream(
    const std::string& name) {
  return find(stream_session_key(name), /*stream=*/true);
}

std::shared_ptr<WarmSession> SessionManager::intern(const std::string& key,
                                                    Problem problem,
                                                    bool stream) {
  std::shared_ptr<WarmSession> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(key);
    if (it == sessions_.end()) {
      it = sessions_
               .emplace(key, std::make_shared<WarmSession>(
                                 key, std::move(problem), options_,
                                 *registry_, stream))
               .first;
      // Delta, not absolute: with one manager per shard publishing into the
      // same registry, the gauge totals sessions across the whole service.
      registry_->gauge(stream ? "dp.ingest.streams" : "dp.service.sessions")
          .add(1);
    }
    recency_.remove(key);
    recency_.push_front(key);
    session = it->second;
  }
  // A fresh session may already be warm (a stream), and interning bumps
  // recency, which can change which sessions an over-budget pass would cool.
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
  // their warm run (0 when cooled), so the budget tracks what the graphs
  // actually cost rather than assuming every session weighs the same.
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

std::vector<std::pair<std::string, SessionStats>> SessionManager::stats()
    const {
  // Snapshot under the manager lock, then lock each session outside it: a
  // stats reader waiting on a session mid-diagnosis must not stall the
  // lookups every submit makes.
  std::vector<std::shared_ptr<WarmSession>> sessions;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sessions.reserve(sessions_.size());
    for (const auto& [key, session] : sessions_) sessions.push_back(session);
  }
  std::vector<std::pair<std::string, SessionStats>> out;
  out.reserve(sessions.size());
  for (const auto& session : sessions) {
    std::lock_guard<std::mutex> session_lock(session->mutex());
    out.emplace_back(session->key(), session->stats());
  }
  return out;
}

}  // namespace dp::service
