#include "service/service.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <sstream>

#include "ndlog/parser.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "util/hash.h"

namespace dp::service {
namespace {

// Completed tickets retained for poll() after the fact, per shard; beyond
// this, the oldest finished tickets are dropped (sequence numbers are
// monotonic within a shard, so "oldest" is map order).
constexpr std::size_t kMaxRetainedTickets = 1 << 16;

double micros_between(std::chrono::steady_clock::time_point a,
                      std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Replays (session warm-ups and diagnosis experiments alike) publish engine
// metrics into the service registry unless the caller wired one explicitly.
ReplayOptions with_metrics(ReplayOptions options, obs::MetricsRegistry* r) {
  if (options.engine_config.metrics == nullptr) {
    options.engine_config.metrics = r;
  }
  return options;
}

/// The explain profile served with a finished response: the paper-§4 phase
/// decomposition plus the serving-path phases around it, an explicit
/// "other_us" remainder (so the phases sum to total_us by construction),
/// the provenance/store footprint this run touched, and its disposition.
std::string render_profile_json(const DiagnoseProfile& profile,
                                double session_wait_us, double warm_replay_us,
                                double ingest_snapshot_us, bool warm_hit,
                                double exec_us, std::uint64_t trace_id,
                                std::uint64_t vertices_delta,
                                std::uint64_t store_tuples,
                                std::uint64_t store_bytes) {
  // Profile times are integral microseconds: precise enough to explain a
  // diagnosis. Each phase is rounded independently, the remainder covers
  // whatever the named phases did not measure, and total is reconciled with
  // the rounded sum so "phases add up to total_us" holds *exactly* (the
  // invariant --explain's percentage column and the tests rely on).
  const auto us = [](double v) { return std::llround(v); };
  const long long phases[] = {us(session_wait_us),
                              us(warm_replay_us),
                              us(ingest_snapshot_us),
                              us(profile.initial_replay_us),
                              us(profile.locate_us),
                              us(profile.timing.find_seed_us),
                              us(profile.timing.annotate_us),
                              us(profile.timing.divergence_us),
                              us(profile.timing.make_appear_us),
                              us(profile.timing.replay_us),
                              us(profile.minimize_us)};
  long long accounted = 0;
  for (const long long phase : phases) accounted += phase;
  long long total = us(exec_us);
  const long long other = total > accounted ? total - accounted : 0;
  total = accounted + other;
  std::ostringstream out;
  out << "{\"total_us\":" << total;
  if (trace_id != 0) {
    out << ",\"trace_id\":\"" << obs::format_trace_id(trace_id) << "\"";
  }
  out << ",\"warm_hit\":" << (warm_hit ? "true" : "false")
      << ",\"phases\":{\"session_wait_us\":" << phases[0]
      << ",\"warm_replay_us\":" << phases[1]
      << ",\"ingest_snapshot_us\":" << phases[2]
      << ",\"replay_us\":" << phases[3]
      << ",\"locate_us\":" << phases[4]
      << ",\"find_seed_us\":" << phases[5]
      << ",\"annotate_us\":" << phases[6]
      << ",\"divergence_us\":" << phases[7]
      << ",\"make_appear_us\":" << phases[8]
      << ",\"diff_replay_us\":" << phases[9]
      << ",\"minimize_us\":" << phases[10]
      << ",\"other_us\":" << other << "}"
      << ",\"rounds\":" << profile.rounds
      << ",\"replays\":" << profile.timing.replays
      << ",\"replayed_events\":" << profile.replayed_events
      << ",\"good_tree_size\":" << profile.good_tree_size
      << ",\"bad_tree_size\":" << profile.bad_tree_size
      << ",\"vertices_delta\":" << vertices_delta
      << ",\"store_tuples\":" << store_tuples
      << ",\"store_bytes\":" << store_bytes << "}";
  return out.str();
}

}  // namespace

std::string to_string(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kRunning:
      return "running";
    case QueryState::kDone:
      return "done";
    case QueryState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

std::string ServiceStats::to_text() const {
  std::ostringstream out;
  out << "submitted " << submitted << " completed " << completed << " shed "
      << shed << " cancelled " << cancelled << " runs " << runs << "\n"
      << "cache hits " << cache_hits << " misses " << cache_misses
      << " coalesced " << coalesced << " entries " << cache_size
      << " evictions " << cache_evictions << "\n"
      << "shards " << shards << " queue " << queue_depth << "/"
      << queue_capacity << " sessions " << sessions << " (" << warm_sessions
      << " warm, " << warm_resident_bytes << " resident bytes)\n"
      << "ingest streams " << ingest_streams << " events " << ingest_events
      << " (" << ingest_resident_bytes << " resident bytes)\n";
  for (const auto& [key, s] : per_session) {
    out << "  session " << key << ": queries " << s.queries << " warm_hits "
        << s.warm_hits << " cold_replays " << s.cold_replays << " probes "
        << s.probes << " checkpoint_restores " << s.checkpoint_restores
        << "\n";
  }
  for (const auto& [name, s] : per_stream) {
    out << "  stream " << name << ": events " << s.events << " snapshots "
        << s.queries << " rebuilds " << s.live_rebuilds << "\n";
  }
  return out.str();
}

DiagnosisService::Shard::Shard(std::size_t shard_index, std::size_t max_warm,
                               std::shared_ptr<WarmBudgetLedger> ledger,
                               ReplayOptions options,
                               obs::MetricsRegistry& registry,
                               std::size_t queue_capacity,
                               std::size_t slow_journal_capacity)
    : index(shard_index),
      sessions(max_warm, std::move(ledger), shard_index, std::move(options),
               registry),
      queue(queue_capacity),
      queue_depth(registry.gauge("dp.service.shard." +
                                 std::to_string(shard_index) +
                                 ".queue_depth")),
      slow_journal(slow_journal_capacity) {}

DiagnosisService::DiagnosisService(ServiceConfig config)
    : config_(std::move(config)),
      registry_(config_.metrics != nullptr ? config_.metrics
                                           : &obs::default_registry()),
      replay_options_(with_metrics(config_.replay, registry_)),
      ledger_(std::make_shared<WarmBudgetLedger>(
          config_.warm_bytes_budget,
          std::min<std::size_t>(std::max<std::size_t>(config_.shards, 1),
                                kMaxShards))),
      cache_(config_.cache_capacity, config_.cache_stripes, registry_),
      submitted_(registry_->counter("dp.service.submitted")),
      completed_(registry_->counter("dp.service.completed")),
      shed_(registry_->counter("dp.service.shed")),
      cancelled_(registry_->counter("dp.service.cancelled")),
      runs_(registry_->counter("dp.service.runs")),
      cache_hits_(registry_->counter("dp.service.cache.hits")),
      cache_misses_(registry_->counter("dp.service.cache.misses")),
      coalesced_(registry_->counter("dp.service.cache.coalesced")),
      queue_depth_(registry_->gauge("dp.service.queue_depth")),
      worker_stuck_(registry_->gauge("dp.service.worker.stuck")),
      worker_panics_(registry_->counter("dp.service.worker.panics")),
      slow_captured_(registry_->counter("dp.service.slow.captured")),
      queue_wait_us_(registry_->sketch("dp.service.queue_wait_us")),
      exec_us_(registry_->sketch("dp.service.exec_us")) {
  const std::size_t nshards = std::min<std::size_t>(
      std::max<std::size_t>(config_.shards, 1), kMaxShards);
  // The session-count cap is global; every shard enforces its slice (at
  // least one warm session per shard, or the shard could never serve warm).
  const std::size_t max_warm_per_shard =
      std::max<std::size_t>(1, config_.max_warm_sessions / nshards);
  shards_.reserve(nshards);
  for (std::size_t s = 0; s < nshards; ++s) {
    shards_.push_back(std::make_unique<Shard>(
        s, max_warm_per_shard, ledger_, replay_options_, *registry_,
        config_.queue_capacity, config_.slow_journal_capacity));
  }
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    shard.worker_states.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i) {
      shard.worker_states.push_back(std::make_unique<WorkerState>());
    }
    shard.workers.reserve(config_.workers);
    for (std::size_t i = 0; i < config_.workers; ++i) {
      shard.workers.emplace_back([this, &shard, i] { worker_loop(shard, i); });
    }
  }
  watchdog_ = std::thread([this] { watchdog_loop(); });
}

DiagnosisService::~DiagnosisService() { shutdown(/*drain=*/true); }

std::size_t DiagnosisService::shard_of_key(
    const std::string& session_key) const {
  return fnv1a(session_key) % shards_.size();
}

DiagnosisService::Shard* DiagnosisService::shard_for_id(
    std::uint64_t id) const {
  const std::size_t index = static_cast<std::size_t>(id >> kShardShift);
  if (index >= shards_.size()) return nullptr;
  return shards_[index].get();
}

std::uint64_t DiagnosisService::allocate_ticket(
    Shard& shard, std::chrono::steady_clock::time_point now) {
  std::lock_guard<std::mutex> lock(shard.mutex);
  const std::uint64_t id = make_ticket_id(shard.index, shard.next_seq++);
  shard.tickets[id].submitted_at = now;
  return id;
}

std::vector<std::uint64_t> DiagnosisService::ticket_ids_of(JobState& job) {
  std::lock_guard<std::mutex> lock(job.ids_mutex);
  return job.ticket_ids;
}

SubmitOutcome DiagnosisService::submit(const Query& query) {
  SubmitOutcome outcome;

  // Route before resolving: the session key alone picks the shard, so every
  // structure touched from here on is shard-local (or a cache stripe).
  std::string session_key;
  if (!query.stream.empty()) {
    if (!query.scenario.empty() || !query.program_text.empty()) {
      outcome.error =
          "query names both a live stream and a scenario/inline problem";
      return outcome;
    }
    session_key = stream_session_key(query.stream);
  } else if (!query.scenario.empty()) {
    session_key = query.scenario;
  } else if (!query.program_text.empty()) {
    session_key = inline_session_key(query.program_text, query.log_text);
  } else {
    outcome.error = "query names neither a scenario nor an inline problem";
    return outcome;
  }
  Shard& shard = *shards_[shard_of_key(session_key)];

  std::shared_ptr<WarmSession> session;
  if (!query.stream.empty()) {
    session = shard.sessions.find_stream(query.stream);
    if (session == nullptr) {
      outcome.error = "unknown ingest stream \"" + query.stream +
                      "\" (ingest_open first)";
      return outcome;
    }
  } else if (!query.scenario.empty()) {
    session = shard.sessions.get_scenario(query.scenario, outcome.error);
  } else {
    session = shard.sessions.get_inline(query.program_text, query.log_text,
                                        outcome.error);
  }
  if (session == nullptr) return outcome;
  // The default events are fixed at open; only the log grows.
  const Problem& problem = session->problem();

  DiagnoseSpec spec;
  spec.minimize = query.minimize;
  try {
    if (!query.bad.empty()) {
      spec.bad_event = parse_tuple(query.bad);
    } else if (problem.bad_event) {
      spec.bad_event = *problem.bad_event;
    } else {
      outcome.error = "no event of interest: pass bad=<tuple>";
      return outcome;
    }
    if (query.auto_reference) {
      spec.good_event.reset();
    } else if (!query.good.empty()) {
      spec.good_event = parse_tuple(query.good);
    } else if (problem.good_event) {
      spec.good_event = *problem.good_event;
    } else {
      outcome.error =
          "no reference event: pass good=<tuple> or auto_reference";
      return outcome;
    }
  } catch (const std::exception& e) {
    outcome.error = std::string("bad tuple: ") + e.what();
    return outcome;
  }

  // The cache key names the session (for an inline problem, its program
  // text too) and the log's *running* content hash: every append advances
  // it, so an entry for an older prefix is simply unreachable, never served
  // stale. (A result may cover a slightly longer prefix than the hash it
  // was keyed under -- appends that landed between submit and the query's
  // drain -- which is the freshest answer, not a stale one.)
  const std::string key = make_cache_key(
      hash_mix(fnv1a(session_key), session->content_hash()),
      spec.bad_event.to_string(),
      spec.good_event ? spec.good_event->to_string() : "<auto>",
      spec.minimize, config_.config_epoch);
  const bool cacheable = !query.bypass_cache;
  const auto now = std::chrono::steady_clock::now();

  if (!accepting_.load(std::memory_order_acquire)) {
    outcome.error = "service is shutting down";
    return outcome;
  }
  submitted_.inc();
  const std::uint64_t id = allocate_ticket(shard, now);

  if (cacheable) {
    CachedResult hit;
    const StripedResultCache::Admission admission = cache_.admit(
        key, &hit,
        // Coalesce: attach this ticket to the running leader's list, under
        // the stripe lock (so the attach is ordered against the leader's
        // completion) and the leader's ids_mutex (so it is ordered against
        // the worker's snapshots).
        [&](const std::shared_ptr<void>& leader) {
          auto leader_job = std::static_pointer_cast<JobState>(leader);
          std::lock_guard<std::mutex> ids_lock(leader_job->ids_mutex);
          leader_job->ticket_ids.push_back(id);
        },
        // No cached result, no leader: become the leader if the shard's
        // queue takes the job. Pushing under the stripe lock keeps "leader
        // registered" and "job queued" atomic -- nobody can coalesce onto a
        // job the queue just rejected.
        [&]() -> std::shared_ptr<void> {
          auto job = std::make_shared<JobState>();
          job->key = key;
          job->shard = shard.index;
          job->session = session;
          job->spec = spec;
          job->cacheable = true;
          job->trace_id = query.trace_id;
          job->ticket_ids.push_back(id);
          if (!shard.queue.try_push(job)) return nullptr;
          return job;
        });
    switch (admission) {
      case StripedResultCache::Admission::kHit: {
        cache_hits_.inc();
        {
          std::lock_guard<std::mutex> lock(shard.mutex);
          auto it = shard.tickets.find(id);
          if (it != shard.tickets.end()) {
            it->second.state = QueryState::kDone;
            it->second.cache_hit = true;
            it->second.result = std::move(hit);
          }
          completed_.inc();
          trim_tickets_locked(shard);
        }
        outcome.accepted = true;
        outcome.id = id;
        return outcome;
      }
      case StripedResultCache::Admission::kCoalesced: {
        cache_misses_.inc();
        coalesced_.inc();
        {
          std::lock_guard<std::mutex> lock(shard.mutex);
          auto it = shard.tickets.find(id);
          if (it != shard.tickets.end()) it->second.coalesced = true;
        }
        outcome.accepted = true;
        outcome.id = id;
        return outcome;
      }
      case StripedResultCache::Admission::kAccepted: {
        cache_misses_.inc();
        queue_depth_.add(1);
        shard.queue_depth.set(
            static_cast<std::int64_t>(shard.queue.size()));
        outcome.accepted = true;
        outcome.id = id;
        return outcome;
      }
      case StripedResultCache::Admission::kShed: {
        cache_misses_.inc();
        shed_.inc();
        {
          std::lock_guard<std::mutex> lock(shard.mutex);
          shard.tickets.erase(id);
        }
        outcome.shed = true;
        outcome.error = "queue full (capacity " +
                        std::to_string(shard.queue.capacity()) +
                        "): query shed";
        return outcome;
      }
    }
  }

  // Bypass: never reads or writes the cache, never coalesces -- one job, one
  // run, straight onto the shard's queue.
  auto job = std::make_shared<JobState>();
  job->key = key;
  job->shard = shard.index;
  job->session = std::move(session);
  job->spec = std::move(spec);
  job->cacheable = false;
  job->trace_id = query.trace_id;
  job->ticket_ids.push_back(id);
  if (!shard.queue.try_push(job)) {
    shed_.inc();
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.tickets.erase(id);
    }
    outcome.shed = true;
    outcome.error = "queue full (capacity " +
                    std::to_string(shard.queue.capacity()) + "): query shed";
    return outcome;
  }
  queue_depth_.add(1);
  shard.queue_depth.set(static_cast<std::int64_t>(shard.queue.size()));
  outcome.accepted = true;
  outcome.id = id;
  return outcome;
}

void DiagnosisService::worker_loop(Shard& shard, std::size_t worker_index) {
  WorkerState& state = *shard.worker_states[worker_index];
  while (auto job = shard.queue.pop()) {
    // 0 is the "idle" sentinel, but monotonic_micros() is zeroed at first
    // use -- the first job a worker ever picks can land on the epoch
    // exactly. Clamp to 1: one microsecond of deadline slack vs. a worker
    // the watchdog would otherwise never see as busy.
    const std::uint64_t busy_at = obs::monotonic_micros();
    state.busy_since_us.store(busy_at == 0 ? 1 : busy_at,
                              std::memory_order_relaxed);
    run_job(shard, *job);
    state.busy_since_us.store(0, std::memory_order_relaxed);
  }
}

void DiagnosisService::watchdog_loop() {
  const std::uint64_t deadline_us =
      static_cast<std::uint64_t>(config_.worker_deadline.count()) * 1000;
  std::int64_t last_stuck = 0;
  std::unique_lock<std::mutex> lock(watchdog_mutex_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, config_.watchdog_interval,
                          [this] { return watchdog_stop_; });
    if (watchdog_stop_) break;
    // Every tick keeps the recorder's coarse clock fresh, so ring
    // timestamps are accurate to ~one interval even on threads that record
    // rarely.
    obs::Recorder::refresh_clock();
    if (deadline_us == 0) continue;
    const std::uint64_t now = obs::monotonic_micros();
    std::int64_t stuck = 0;
    for (const auto& shard : shards_) {
      for (const auto& ws : shard->worker_states) {
        const std::uint64_t busy_since =
            ws->busy_since_us.load(std::memory_order_relaxed);
        if (busy_since != 0 && now - busy_since > deadline_us) ++stuck;
      }
    }
    worker_stuck_.set(stuck);
    if (stuck > last_stuck) {
      // New stuck episode: capture the last moments once (not every tick --
      // a wedged worker would otherwise flood stderr). The slow-query
      // journal rides along: past tail captures are exactly the context for
      // "why is this worker wedged now".
      const std::string reason = "watchdog: " + std::to_string(stuck) +
                                 " worker(s) past the deadline";
      obs::Recorder::instance().dump_to_stderr(reason);
      dump_slowz_to_stderr(reason);
    }
    last_stuck = stuck;
  }
}

void DiagnosisService::run_job(Shard& shard,
                               const std::shared_ptr<JobState>& job) {
  const auto started_at = std::chrono::steady_clock::now();
  // On the sampler's clock too: slow-query capture uses it to select stack
  // samples that landed on this thread while this job ran.
  const std::uint64_t job_start_us = obs::monotonic_micros();
  queue_depth_.add(-1);
  shard.queue_depth.set(static_cast<std::int64_t>(shard.queue.size()));

  std::vector<std::uint64_t> ids = ticket_ids_of(*job);
  bool any_live = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const std::uint64_t id : ids) {
      auto it = shard.tickets.find(id);
      if (it == shard.tickets.end() ||
          it->second.state != QueryState::kQueued) {
        continue;
      }
      it->second.state = QueryState::kRunning;
      it->second.queue_us = micros_between(it->second.submitted_at, started_at);
      queue_wait_us_.observe(it->second.queue_us);
      any_live = true;
    }
  }
  if (!any_live && job->cacheable) {
    // Everyone we know about cancelled while we were queued. Retire the
    // leadership first, then re-check: a duplicate may have coalesced onto
    // this job between the snapshot above and take_inflight. If one did, it
    // is waiting on us -- run anyway (worst case one redundant run in a
    // vanishingly rare race; never a ticket stuck forever).
    cache_.take_inflight(job->key);
    ids = ticket_ids_of(*job);
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const std::uint64_t id : ids) {
      auto it = shard.tickets.find(id);
      if (it == shard.tickets.end() ||
          it->second.state != QueryState::kQueued) {
        continue;
      }
      it->second.state = QueryState::kRunning;
      it->second.queue_us = micros_between(it->second.submitted_at, started_at);
      queue_wait_us_.observe(it->second.queue_us);
      any_live = true;
    }
  }
  if (!any_live) return;

  if (config_.on_job_start) config_.on_job_start();

  // The job runs under the submitting client's trace context: every span
  // below (service, session, diffprov, engine) inherits the minted trace id
  // even though we're on a worker thread, not the connection thread.
  obs::ScopedTraceContext trace_scope({job->trace_id, 0});

  const std::uint64_t vertices_before =
      registry_->counter("dp.prov.vertices").value();

  CachedResult result;
  DiagnoseProfile profile;
  double session_wait_us = 0;
  double warm_replay_us = 0;
  double ingest_snapshot_us = 0;
  bool warm_hit = false;
  try {
    DP_SPAN_CAT("dp.service.run", "service");
    // Per-session serialization: one query (or append) at a time against a
    // resident engine; jobs for other sessions proceed on other workers in
    // parallel.
    WarmSession& session = *job->session;
    const auto wait_start = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> session_lock(session.mutex());
    const auto warm_start = std::chrono::steady_clock::now();
    session_wait_us = micros_between(wait_start, warm_start);
    // A cold session replays its log; a warm one drains what was appended
    // since its last query (nothing, for a session that takes no appends).
    bool replayed = false;
    std::shared_ptr<const BadRun> run = session.ensure_warm(&replayed);
    (replayed ? warm_replay_us : ingest_snapshot_us) =
        micros_between(warm_start, std::chrono::steady_clock::now());
    warm_hit = !replayed;
    const DiagnoseOutcome outcome = diagnose_problem(
        session.problem(), job->spec, replay_options_, std::move(run));
    result.exit_code = outcome.exit_code;
    result.out = outcome.pre + outcome.out;
    result.err = outcome.err;
    profile = outcome.profile;
  } catch (const std::exception& e) {
    // Worker panic: the diagnosis threw past the pipeline's own error
    // handling. Dump the flight recorder (the last spans/logs before the
    // throw are exactly the forensics wanted here), report the failure to
    // the waiting tickets, and keep the worker alive.
    worker_panics_.inc();
    obs::Recorder::instance().dump_to_stderr(
        std::string("worker panic: ") + e.what());
    dump_slowz_to_stderr(std::string("worker panic: ") + e.what());
    result.exit_code = 1;
    result.out.clear();
    result.err = std::string("internal error: ") + e.what() + "\n";
  }
  // The warm-up (or drain) above may have changed the measured footprint:
  // re-apply the byte budget now that the session lock is released (the
  // budget pass try-locks sessions, so it must not run while we hold one).
  shard.sessions.enforce_budget();
  runs_.inc();
  const auto finished_at = std::chrono::steady_clock::now();
  const double exec_us = micros_between(started_at, finished_at);
  // Adaptive slow-query threshold: read the live p99 *before* folding this
  // job in, so one slow outlier cannot raise the bar it is judged against.
  const double live_p99 = exec_us_.quantile(0.99);
  exec_us_.observe(exec_us);
  result.profile_json = render_profile_json(
      profile, session_wait_us, warm_replay_us, ingest_snapshot_us, warm_hit,
      exec_us, job->trace_id,
      registry_->counter("dp.prov.vertices").value() - vertices_before,
      static_cast<std::uint64_t>(registry_->gauge("dp.store.tuples").value()),
      static_cast<std::uint64_t>(registry_->gauge("dp.store.bytes").value()));

  if (config_.slow_ms >= 0) {
    const double threshold_us =
        std::max(config_.slow_ms * 1000.0, config_.slow_factor * live_p99);
    if (exec_us >= threshold_us) {
      capture_slow(shard, *job, exec_us, threshold_us, result.profile_json,
                   job_start_us);
    }
  }

  // Publish, then complete. complete() publishes the result and drops the
  // in-flight entry inside one stripe critical section, so a duplicate
  // submitted at any moment either coalesced onto this job (its id is in
  // ticket_ids by the time we snapshot below -- coalescing happens under the
  // same stripe lock) or will hit the cache.
  if (job->cacheable) cache_.complete(job->key, result);
  ids = ticket_ids_of(*job);
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const std::uint64_t id : ids) {
      complete_locked(shard, id, result, exec_us, finished_at);
    }
    trim_tickets_locked(shard);
  }
  shard.done_cv.notify_all();
}

void DiagnosisService::capture_slow(Shard& shard, const JobState& job,
                                    double exec_us, double threshold_us,
                                    const std::string& profile_json,
                                    std::uint64_t job_start_us) {
  // The span keeps at least one frame live on this thread's scope stack
  // while self_slice() takes its synchronous self-sample, so the slice is
  // non-empty whenever the recorder is on.
  DP_SPAN_CAT("dp.service.slow_capture", "service");
  SlowQueryEntry entry;
  entry.time_us = obs::monotonic_micros();
  entry.trace_id = job.trace_id;
  entry.key = job.key;
  entry.shard = shard.index;
  entry.exec_us = exec_us;
  entry.threshold_us = threshold_us;
  entry.profile_json = profile_json;
  entry.profile_slice = obs::Recorder::instance().self_slice(job_start_us);
  entry.flightrec_json = obs::Recorder::instance().to_json();
  shard.slow_journal.add(std::move(entry));
  slow_captured_.inc();
}

std::string DiagnosisService::slowz_json() const {
  std::vector<SlowQueryEntry> entries;
  std::uint64_t captured = 0;
  for (const auto& shard : shards_) {
    captured += shard->slow_journal.captured();
    std::vector<SlowQueryEntry> part = shard->slow_journal.snapshot();
    entries.insert(entries.end(), std::make_move_iterator(part.begin()),
                   std::make_move_iterator(part.end()));
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
                     return a.time_us < b.time_us;
                   });
  return render_slowz_json(entries, captured);
}

void DiagnosisService::dump_slowz_to_stderr(const std::string& reason) const {
  // One fwrite, mirroring Recorder::dump_to_stderr: a single line a
  // log collector keeps intact.
  const std::string line = "[dp:SLOWZ] " + reason + ": " + slowz_json() + "\n";
  std::fwrite(line.data(), 1, line.size(), stderr);
}

void DiagnosisService::complete_locked(
    Shard& shard, std::uint64_t id, const CachedResult& result,
    double exec_us, std::chrono::steady_clock::time_point now) {
  auto it = shard.tickets.find(id);
  if (it == shard.tickets.end()) return;
  Ticket& ticket = it->second;
  if (ticket.state == QueryState::kCancelled ||
      ticket.state == QueryState::kDone) {
    return;
  }
  if (ticket.state == QueryState::kQueued) {
    // Coalesced ticket attached after the leader started running.
    ticket.queue_us = micros_between(ticket.submitted_at, now);
  }
  ticket.state = QueryState::kDone;
  ticket.result = result;
  ticket.exec_us = exec_us;
  completed_.inc();
}

void DiagnosisService::trim_tickets_locked(Shard& shard) {
  for (auto it = shard.tickets.begin();
       shard.tickets.size() > kMaxRetainedTickets &&
       it != shard.tickets.end();) {
    if (it->second.state == QueryState::kDone ||
        it->second.state == QueryState::kCancelled) {
      it = shard.tickets.erase(it);
    } else {
      ++it;
    }
  }
}

QueryStatus DiagnosisService::status_of(const Ticket& ticket) {
  QueryStatus status;
  status.state = ticket.state;
  status.cache_hit = ticket.cache_hit;
  status.coalesced = ticket.coalesced;
  status.result = ticket.result;
  status.queue_us = ticket.queue_us;
  status.exec_us = ticket.exec_us;
  return status;
}

std::optional<QueryStatus> DiagnosisService::poll(std::uint64_t id) const {
  Shard* shard = shard_for_id(id);
  if (shard == nullptr) return std::nullopt;
  std::lock_guard<std::mutex> lock(shard->mutex);
  auto it = shard->tickets.find(id);
  if (it == shard->tickets.end()) return std::nullopt;
  return status_of(it->second);
}

std::optional<QueryStatus> DiagnosisService::wait(std::uint64_t id) {
  Shard* shard = shard_for_id(id);
  if (shard == nullptr) return std::nullopt;
  std::unique_lock<std::mutex> lock(shard->mutex);
  auto it = shard->tickets.find(id);
  if (it == shard->tickets.end()) return std::nullopt;
  shard->done_cv.wait(lock, [&] {
    const Ticket& ticket = shard->tickets.at(id);
    return ticket.state == QueryState::kDone ||
           ticket.state == QueryState::kCancelled;
  });
  return status_of(shard->tickets.at(id));
}

bool DiagnosisService::cancel(std::uint64_t id) {
  Shard* shard = shard_for_id(id);
  if (shard == nullptr) return false;
  {
    std::lock_guard<std::mutex> lock(shard->mutex);
    auto it = shard->tickets.find(id);
    if (it == shard->tickets.end() ||
        it->second.state != QueryState::kQueued) {
      return false;
    }
    it->second.state = QueryState::kCancelled;
    cancelled_.inc();
  }
  shard->done_cv.notify_all();
  return true;
}

SubmitOutcome DiagnosisService::probe(const std::string& scenario,
                                      const std::string& tuple_text,
                                      bool& live, std::uint64_t trace_id) {
  SubmitOutcome outcome;
  Shard& shard = *shards_[shard_of_key(scenario)];
  std::shared_ptr<WarmSession> session =
      shard.sessions.get_scenario(scenario, outcome.error);
  if (session == nullptr) return outcome;
  Tuple tuple;
  try {
    tuple = parse_tuple(tuple_text);
  } catch (const std::exception& e) {
    outcome.error = std::string("bad tuple: ") + e.what();
    return outcome;
  }
  // Probes run on the caller's (connection) thread; scope its spans to the
  // client's trace the same way run_job does for diagnoses.
  obs::ScopedTraceContext trace_scope({trace_id, 0});
  std::lock_guard<std::mutex> session_lock(session->mutex());
  live = session->probe_live(tuple);
  outcome.accepted = true;
  return outcome;
}

IngestOutcome DiagnosisService::open_stream(const std::string& name,
                                            const std::string& scenario,
                                            const std::string& program_text) {
  IngestOutcome out;
  if (name.empty()) {
    out.error = "open_stream needs a stream name";
    return out;
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    out.error = "service is shutting down";
    return out;
  }
  SessionManager& sessions =
      shards_[shard_of_key(stream_session_key(name))]->sessions;
  if (std::shared_ptr<WarmSession> existing = sessions.find_stream(name)) {
    std::lock_guard<std::mutex> lock(existing->mutex());
    out.ok = true;
    out.stream = existing->stats();
    return out;
  }
  Problem problem;
  if (!scenario.empty()) {
    std::ostringstream err;
    std::optional<Problem> built = builtin_scenario(scenario, err);
    if (!built) {
      out.error = err.str();
      return out;
    }
    problem = std::move(*built);
  } else if (!program_text.empty()) {
    try {
      problem = parse_problem(program_text, "");
    } catch (const std::exception& e) {
      out.error = e.what();
      return out;
    }
  } else {
    out.error = "open_stream needs a scenario or an inline program";
    return out;
  }
  // The scenario's recorded log is dropped at open: a live stream's history
  // arrives only through ingest(), event by event.
  std::shared_ptr<WarmSession> stream =
      sessions.open_stream(name, std::move(problem));
  std::lock_guard<std::mutex> lock(stream->mutex());
  out.ok = true;
  out.stream = stream->stats();
  return out;
}

IngestOutcome DiagnosisService::ingest(const std::string& name,
                                       const std::string& events_text, bool) {
  IngestOutcome out;
  SessionManager& sessions =
      shards_[shard_of_key(stream_session_key(name))]->sessions;
  std::shared_ptr<WarmSession> stream = sessions.find_stream(name);
  if (stream == nullptr) {
    out.error =
        "unknown ingest stream \"" + name + "\" (ingest_open first)";
    return out;
  }
  try {
    std::lock_guard<std::mutex> lock(stream->mutex());
    out.accepted = stream->append_text(events_text);
    out.stream = stream->stats();
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }
  out.ok = true;
  // The batch grew the stream's footprint (or cooled it): re-apply the
  // budget now that the session lock is released.
  sessions.enforce_budget();
  return out;
}

ServiceStats DiagnosisService::stats() const {
  ServiceStats stats;
  stats.submitted = submitted_.value();
  stats.completed = completed_.value();
  stats.shed = shed_.value();
  stats.cancelled = cancelled_.value();
  stats.runs = runs_.value();
  stats.cache_hits = cache_hits_.value();
  stats.cache_misses = cache_misses_.value();
  stats.coalesced = coalesced_.value();
  stats.queue_capacity = config_.queue_capacity;
  stats.cache_size = cache_.size();
  stats.cache_evictions = cache_.evictions();
  stats.shards = shards_.size();
  stats.shard_queue_depths.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::size_t depth = shard->queue.size();
    stats.shard_queue_depths.push_back(depth);
    stats.queue_depth += depth;
    for (auto& [key, s] : shard->sessions.stats()) {
      if (key.starts_with(kStreamKeyPrefix)) {
        stats.ingest_events += s.events;
        stats.ingest_resident_bytes += s.resident_bytes;
        stats.per_stream.emplace_back(key.substr(kStreamKeyPrefix.size()), s);
      } else {
        ++stats.sessions;
        if (s.resident_bytes > 0) ++stats.warm_sessions;
        stats.warm_resident_bytes += s.resident_bytes;
        stats.per_session.emplace_back(std::move(key), s);
      }
    }
  }
  std::sort(stats.per_stream.begin(), stats.per_stream.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  stats.ingest_streams = stats.per_stream.size();
  return stats;
}

void DiagnosisService::shutdown(bool drain) {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  accepting_.store(false, std::memory_order_release);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::vector<std::shared_ptr<JobState>> orphans;
    if (drain) {
      shard.queue.close();
    } else {
      orphans = shard.queue.close_and_clear();
    }
    for (const auto& job : orphans) {
      if (job->cacheable) cache_.take_inflight(job->key);
      const std::vector<std::uint64_t> ids = ticket_ids_of(*job);
      std::lock_guard<std::mutex> lock(shard.mutex);
      for (const std::uint64_t id : ids) {
        auto it = shard.tickets.find(id);
        if (it == shard.tickets.end() ||
            it->second.state != QueryState::kQueued) {
          continue;
        }
        it->second.state = QueryState::kCancelled;
        cancelled_.inc();
      }
    }
    shard.done_cv.notify_all();
  }
  for (auto& shard_ptr : shards_) {
    for (auto& worker : shard_ptr->workers) {
      if (worker.joinable()) worker.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  queue_depth_.set(0);
  worker_stuck_.set(0);
  for (auto& shard_ptr : shards_) shard_ptr->queue_depth.set(0);
}

}  // namespace dp::service
