// serve-live: an in-process DiagnosisService with reads and writes side by
// side.
//
// Two closed-loop clients submit a fixed mix in seeded order: warm scenario
// queries that bypass the cache, repeats the cache can answer, and (rarely,
// since each one replays the whole stream) queries against a live stream.
// Every block of kBlock queries holds each kind exactly its share of times,
// so a run's mix does not vary with the seed. One
// open-loop appender feeds that stream at a fixed event rate; each append is
// timed from when it was due, so a stall behind a stream diagnosis (which
// holds the stream mutex) shows as lag on every append it delays.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common.h"
#include "inputs.h"
#include "sdn/scenario.h"
#include "service/service.h"
#include "util/rng.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 7;
constexpr std::size_t kClients = 2;
constexpr std::size_t kShards = 2;
constexpr std::size_t kWorkersPerShard = 2;  // kShards * this <= nproc
/// Background packets in the live stream: the before-half is ingested during
/// set-up with SDN1's log, the after-half is appended while serving.
constexpr std::size_t kStreamBackground = 2000;
constexpr std::size_t kAppendBatch = 4;            // events per ingest call
constexpr double kAppendIntervalMs = 200;          // 20 events/s
/// Query mix per block of kBlock queries of one client: stream queries, then
/// cache-served repeats; the rest are warm scenario queries with bypass_cache.
constexpr std::size_t kBlock = 200;
constexpr std::size_t kStreamPerBlock = 1;
constexpr std::size_t kRepeatPerBlock = 76;
const char* const kStream = "live";
const char* const kWrongRootCause = "no-such-root-cause";

/// What a correct answer for one scenario reads.
struct Expected {
  std::string root_cause;
  std::size_t changes = 0;
  int rounds = 0;
};
using Expectations = std::map<std::string, Expected>;  // by scenario name

struct LiveService {
  std::unique_ptr<dp::obs::MetricsRegistry> registry;
  std::unique_ptr<dp::service::DiagnosisService> service;
};

/// Text batches of `log`'s records, kAppendBatch records each.
std::vector<std::string> batches_of(const dp::EventLog& log) {
  std::vector<std::string> out;
  dp::EventLog batch;
  for (const dp::LogRecord& r : log.records()) {
    batch.append(r);
    if (batch.size() == kAppendBatch) {
      out.push_back(batch.to_text());
      batch = dp::EventLog();
    }
  }
  if (!batch.empty()) out.push_back(batch.to_text());
  return out;
}

/// Reads one number out of a service explain profile (profile_json).
double profile_number(const std::string& profile_json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = profile_json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtod(profile_json.c_str() + at + needle.size(), nullptr);
}

/// The root cause, the change count and the round count, as the cold workload checks
/// them; the rounds come from the explain profile (cached with the answer).
bool answer_ok(const std::optional<dp::service::QueryStatus>& status,
               const Expected& expected) {
  if (!status || status->state != dp::service::QueryState::kDone ||
      status->result.exit_code != 0) {
    return false;
  }
  const std::string& out = status->result.out;
  return out.find(expected.root_cause) != std::string::npos &&
         out.find(std::to_string(expected.changes) + " change(s))") !=
             std::string::npos &&
         profile_number(status->result.profile_json, "rounds") == expected.rounds;
}

/// Submits and waits; throws if the query is refused or does not complete
/// correctly (set-up must not go on with a broken service).
void must_answer(dp::service::DiagnosisService& svc,
                 const dp::service::Query& query, const Expected& expected) {
  const dp::service::SubmitOutcome submitted = svc.submit(query);
  if (!submitted.ok()) {
    throw std::runtime_error("set-up query refused: " + submitted.error);
  }
  if (!answer_ok(svc.wait(submitted.id), expected)) {
    throw std::runtime_error("set-up query answered wrongly: " +
                             (query.stream.empty() ? query.scenario : query.stream));
  }
}

/// Starts the service, warms a session per scenario, opens the live stream
/// and ingests its prefix (SDN1 plus the before-half of the background).
LiveService start_service(const dp::EventLog& stream_prefix,
                          const Expectations& expectations) {
  LiveService live;
  live.registry = std::make_unique<dp::obs::MetricsRegistry>();
  dp::service::ServiceConfig config;
  config.shards = kShards;
  config.workers = kWorkersPerShard;
  config.metrics = live.registry.get();
  live.service = std::make_unique<dp::service::DiagnosisService>(config);
  for (const auto& [name, expected] : expectations) {
    dp::service::Query query;
    query.scenario = name;
    query.bypass_cache = true;
    must_answer(*live.service, query, expected);
  }
  const auto opened = live.service->open_stream(kStream, "sdn1");
  if (!opened.ok) throw std::runtime_error("open_stream: " + opened.error);
  const auto fed = live.service->ingest(kStream, stream_prefix.to_text(), true);
  if (!fed.ok) throw std::runtime_error("ingest: " + fed.error);
  dp::service::Query query;
  query.stream = kStream;
  query.bypass_cache = true;
  must_answer(*live.service, query, expectations.at("sdn1"));
  return live;
}

double profile_ms(const std::string& profile_json, const std::string& key) {
  return profile_number(profile_json, key) / 1000.0;
}

double reasoning_ms(const std::string& p) {
  return profile_ms(p, "find_seed_us") + profile_ms(p, "annotate_us") +
         profile_ms(p, "divergence_us") + profile_ms(p, "make_appear_us");
}

/// Splits a finished query's measured interval into layer spans, from the
/// phases the service reports in its explain profile.
void add_profile_spans(Tracer& tracer, int wait_span, int diagnosis,
                       const dp::service::QueryStatus& status) {
  const Span& wait = tracer.spans()[static_cast<std::size_t>(wait_span)];
  const std::string& p = status.result.profile_json;
  double at = wait.start_ms + status.queue_us / 1000.0;
  const double end = wait.end_ms;
  const auto put = [&](const std::string& layer, const std::string& name,
                       double ms) {
    ms = std::max(0.0, std::min(ms, end - at));
    if (ms <= 0) return;
    tracer.add(layer, name, at, at + ms, wait_span, diagnosis);
    at += ms;
  };
  put("service", "session_wait", profile_ms(p, "session_wait_us"));
  put("replay", "warm_replay", profile_ms(p, "warm_replay_us"));
  put("ingest", "snapshot", profile_ms(p, "ingest_snapshot_us"));
  put("replay", "replay", profile_ms(p, "replay_us"));
  put("provenance", "locate", profile_ms(p, "locate_us"));
  put("diffprov", "reasoning", reasoning_ms(p));
  put("replay", "update_replay", profile_ms(p, "diff_replay_us"));
}

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

struct ClientLog {
  std::vector<double> diagnose_ms;  // non-cache-hit scenario queries
  std::vector<double> stream_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_ms;  // non-cache-hit queries
  std::vector<double> exec_ms;
  // From the explain profile of each non-cache-hit scenario query.
  std::vector<double> replays;
  std::vector<double> rounds;
  std::vector<double> update_replay_ms;
  std::vector<double> reasoning_ms;
  std::vector<double> locate_ms;
  std::vector<int> ledger_ids;  // their diagnosis ids, for the ledger
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t correct = 0;
  std::vector<std::string> errors;

  void merge(const ClientLog& o) {
    append(diagnose_ms, o.diagnose_ms);
    append(stream_ms, o.stream_ms);
    append(submit_us, o.submit_us);
    append(queue_ms, o.queue_ms);
    append(exec_ms, o.exec_ms);
    append(replays, o.replays);
    append(rounds, o.rounds);
    append(update_replay_ms, o.update_replay_ms);
    append(reasoning_ms, o.reasoning_ms);
    append(locate_ms, o.locate_ms);
    append(ledger_ids, o.ledger_ids);
    append(errors, o.errors);
    attempted += o.attempted;
    failed += o.failed;
    correct += o.correct;
  }
  void fail(std::string error) {
    ++failed;
    if (errors.size() < 3) errors.push_back(std::move(error));
  }
};

struct AppendLog {
  std::vector<double> lag_ms;  // completion minus scheduled time
  std::vector<double> late_ms;  // how late the generator started the call
  std::vector<double> append_us;  // time inside ingest()
  std::uint64_t events = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  dp::ingest::IngestStreamStats stream;  // after the latest append

  void merge(const AppendLog& o) {
    append(lag_ms, o.lag_ms);
    append(late_ms, o.late_ms);
    append(append_us, o.append_us);
    events += o.events;
    attempted += o.attempted;
    failed += o.failed;
    stream = o.stream;
  }
};

void client_loop(dp::service::DiagnosisService& svc, std::uint64_t seed,
                 int client, Clock::time_point deadline,
                 const std::vector<std::string>& scenarios,
                 const Expectations& expectations, bool wrong,
                 Tracer& tracer, int id_base, ClientLog& log) {
  dp::Rng rng(seed * 1000003u + static_cast<std::uint64_t>(client) +
              static_cast<std::uint64_t>(id_base));
  int next_id = id_base + client * 10'000'000;
  // Query kinds of one block, by position: stream, repeat, then warm.
  std::vector<std::size_t> block(kBlock);
  for (std::size_t k = 0; k < kBlock; ++k) block[k] = k;
  std::size_t at = kBlock;
  while (Clock::now() < deadline) {
    if (at == kBlock) {  // a new block, in a new seeded order
      for (std::size_t k = kBlock - 1; k > 0; --k) {
        std::swap(block[k], block[rng.next_below(k + 1)]);
      }
      at = 0;
    }
    const std::size_t kind = block[at++];
    const std::string& scenario = scenarios[rng.next_below(scenarios.size())];
    dp::service::Query query;
    const bool stream = kind < kStreamPerBlock;
    if (stream) {
      query.stream = kStream;
      query.bypass_cache = true;
    } else {
      query.scenario = scenario;
      query.bypass_cache = kind >= kStreamPerBlock + kRepeatPerBlock;
    }
    // Stream queries diagnose SDN1 inside the live stream.
    Expected expected = expectations.at(stream ? "sdn1" : scenario);
    if (wrong) expected.root_cause = kWrongRootCause;
    ++log.attempted;
    const int id = next_id++;
    ScopedSpan root(tracer, "", stream ? "stream" : "query", id);
    const auto start = Clock::now();
    dp::service::SubmitOutcome submitted;
    {
      ScopedSpan span(tracer, "service", "submit");
      submitted = svc.submit(query);
    }
    log.submit_us.push_back(ms_since(start) * 1000.0);
    if (!submitted.ok()) {
      log.fail(submitted.shed ? "shed" : submitted.error);
      continue;
    }
    const int wait_span = tracer.begin("service", "wait");
    const std::optional<dp::service::QueryStatus> status = svc.wait(submitted.id);
    tracer.end(wait_span);
    const double ms = ms_since(start);
    if (!answer_ok(status, expected)) {
      log.fail("wrong answer to " + (stream ? std::string(kStream) : scenario));
      continue;
    }
    ++log.correct;
    if (status->cache_hit) continue;
    if (wait_span >= 0) add_profile_spans(tracer, wait_span, id, *status);
    log.queue_ms.push_back(status->queue_us / 1000.0);
    log.exec_ms.push_back(status->exec_us / 1000.0);
    if (stream) {
      log.stream_ms.push_back(ms);
      continue;
    }
    log.diagnose_ms.push_back(ms);
    log.ledger_ids.push_back(id);
    const std::string& p = status->result.profile_json;
    log.replays.push_back(profile_number(p, "replays"));
    log.rounds.push_back(profile_number(p, "rounds"));
    log.update_replay_ms.push_back(profile_ms(p, "diff_replay_us"));
    log.reasoning_ms.push_back(reasoning_ms(p));
    log.locate_ms.push_back(profile_ms(p, "locate_us"));
  }
}

void append_loop(dp::service::DiagnosisService& svc,
                 const std::vector<std::string>& batches, std::size_t first,
                 Clock::time_point start, Clock::time_point deadline,
                 Tracer& tracer, AppendLog& log) {
  for (std::size_t k = 0; first + k < batches.size(); ++k) {
    const auto due = start + std::chrono::microseconds(static_cast<std::int64_t>(
                                 kAppendIntervalMs * 1000.0 * static_cast<double>(k)));
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const auto begin = Clock::now();
    log.late_ms.push_back(ms_between(due, begin));
    ++log.attempted;
    dp::service::IngestOutcome out;
    {
      ScopedSpan span(tracer, "ingest", "append");
      out = svc.ingest(kStream, batches[first + k]);
    }
    const auto done = Clock::now();
    log.append_us.push_back(ms_between(begin, done) * 1000.0);
    log.lag_ms.push_back(ms_between(due, done));
    if (!out.ok) {
      ++log.failed;
      continue;
    }
    log.events += out.accepted;
    log.stream = out.stream;
  }
}

/// One serving phase, or several of one kind (traced or untraced) folded
/// together: what the clients and the appender saw, and the service's
/// counter deltas.
struct Phase {
  ClientLog clients;
  AppendLog appends;
  Tracer tracer;
  double elapsed_s = 0;
  double cpu_s = 0;
  std::uint64_t submitted = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t shed = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t warm_resident_bytes = 0;  // at the end

  void absorb(const Phase& o) {
    clients.merge(o.clients);
    appends.merge(o.appends);
    tracer.merge(o.tracer);
    elapsed_s += o.elapsed_s;
    cpu_s += o.cpu_s;
    submitted += o.submitted;
    cache_hits += o.cache_hits;
    shed += o.shed;
    coalesced += o.coalesced;
    warm_resident_bytes = o.warm_resident_bytes;
  }
};

/// Runs the clients and the appender side by side for `seconds`. The
/// appender continues from batch `next_batch` and advances it.
Phase run_phase(dp::service::DiagnosisService& svc, const Options& options,
                double seconds, bool trace, int id_base, Clock::time_point origin,
                const std::vector<std::string>& batches, std::size_t& next_batch,
                const std::vector<std::string>& scenarios,
                const Expectations& expectations) {
  Phase phase;
  phase.tracer = Tracer(trace, origin);
  std::vector<Tracer> tracers(kClients + 1, Tracer(trace, origin));
  std::vector<ClientLog> clients(kClients);
  const dp::service::ServiceStats before = svc.stats();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  const double cpu_start = cpu_seconds();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        try {
          client_loop(svc, options.seed, static_cast<int>(c), deadline, scenarios,
                      expectations, options.wrong_expectation, tracers[c], id_base,
                      clients[c]);
        } catch (const std::exception& e) {
          clients[c].fail(std::string("exception: ") + e.what());
        }
      });
    }
    threads.emplace_back([&] {
      append_loop(svc, batches, next_batch, start, deadline, tracers[kClients],
                  phase.appends);
    });
    for (std::thread& t : threads) t.join();
  }
  phase.elapsed_s = ms_since(start) / 1000.0;
  phase.cpu_s = cpu_seconds() - cpu_start;
  const dp::service::ServiceStats after = svc.stats();
  phase.submitted = after.submitted - before.submitted;
  phase.cache_hits = after.cache_hits - before.cache_hits;
  phase.shed = after.shed - before.shed;
  phase.coalesced = after.coalesced - before.coalesced;
  phase.warm_resident_bytes = after.warm_resident_bytes;
  next_batch += phase.appends.attempted;
  for (const ClientLog& c : clients) phase.clients.merge(c);
  for (const Tracer& t : tracers) phase.tracer.merge(t);
  return phase;
}

void note_phase(Result& result, const char* label, const Phase& phase) {
  const ClientLog& c = phase.clients;
  const AppendLog& a = phase.appends;
  for (const std::string& e : c.errors) result.note("client error: " + e);
  char line[320];
  std::snprintf(line, sizeof line,
                "%s: %llu queries (%llu correct) in %.2f s; %zu scenario "
                "diagnoses, %zu stream queries; %llu appends (%llu events), "
                "generator late p50 %.3f ms",
                label, static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.correct), phase.elapsed_s,
                c.diagnose_ms.size(), c.stream_ms.size(),
                static_cast<unsigned long long>(a.attempted),
                static_cast<unsigned long long>(a.events), median(a.late_ms));
  result.note(line);
  std::snprintf(line, sizeof line,
                "%s: scenario diagnosis p50 %.3f ms p90 %.3f ms; stream query "
                "p50 %.3f ms; ingest lag p50 %.3f ms p90 %.3f ms (%zu appends)",
                label, median(c.diagnose_ms), percentile(c.diagnose_ms, 0.9),
                median(c.stream_ms), median(a.lag_ms), percentile(a.lag_ms, 0.9),
                a.lag_ms.size());
  result.note(line);
}

}  // namespace

Result run_serve_live(const Options& options) {
  Result result;
  Expectations expectations;
  std::vector<std::string> scenarios;
  dp::EventLog sdn1_log;
  for (const dp::sdn::Scenario& s : dp::sdn::all_scenarios()) {
    std::string name = s.name;
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    expectations[name] = {s.expected_root_cause, s.expected_changes, s.expected_rounds};
    scenarios.push_back(name);
    if (name == "sdn1") sdn1_log = s.log;
  }

  // Set-up: inputs, service start, warm sessions, stream prefix.
  LiveService live;
  std::vector<std::string> batches;
  std::size_t prefix_records = 0;
  const double setup_s = timed_setup(
      result, kSetupReps,
      [&] {
        const Background bg = make_background(options.seed, kStreamBackground);
        dp::EventLog prefix_log = sdn1_log;
        for (const dp::LogRecord& r : bg.before.records()) prefix_log.append(r);
        const dp::EventLog prefix = time_ordered(prefix_log);
        batches = batches_of(bg.after);
        prefix_records = prefix.size();
        live = start_service(prefix, expectations);
      },
      [&] {
        live.service.reset();  // before the registry it publishes into
        live.registry.reset();
      });
  dp::service::DiagnosisService& svc = *live.service;
  result.inputs.push_back({"clients", std::to_string(kClients)});
  result.inputs.push_back(
      {"service_workers", std::to_string(kShards * kWorkersPerShard)});
  result.inputs.push_back({"stream_prefix_records", std::to_string(prefix_records)});
  result.inputs.push_back({"stream_append_batches", std::to_string(batches.size())});
  result.inputs.push_back(
      {"append_events_per_s",
       std::to_string(static_cast<double>(kAppendBatch) * 1000.0 / kAppendIntervalMs)});
  result.inputs.push_back({"query_block", std::to_string(kBlock)});
  result.inputs.push_back({"stream_per_block", std::to_string(kStreamPerBlock)});
  result.inputs.push_back({"repeat_per_block", std::to_string(kRepeatPerBlock)});

  std::size_t next_batch = 0;
  if (!options.trace) {
    const Phase phase = run_phase(svc, options, options.seconds, false, 0,
                                  Clock::now(), batches, next_batch, scenarios,
                                  expectations);
    note_phase(result, "serve", phase);
    const ClientLog& c = phase.clients;
    result.attempted = c.attempted + phase.appends.attempted;
    result.failed = c.failed + phase.appends.failed;
    result.add("setup_s", setup_s, "s");
    result.add("diagnoses_per_s", static_cast<double>(c.correct) / phase.elapsed_s,
               "1/s");
    result.add("diagnose_ms_p50", median(c.diagnose_ms), "ms");
    result.add("cpu_ms_per_diagnosis",
               phase.cpu_s * 1000.0 /
                   static_cast<double>(std::max<std::uint64_t>(c.attempted, 1)),
               "ms");
    result.add("peak_rss_mb", peak_rss_mb(), "MB");
    return result;
  }

  // Traced run: quarters of the serving time in the order untraced, traced,
  // traced, untraced, so that both halves see the growing stream at the
  // same sizes on average; the untraced half gives the coverage denominator.
  // Then the replay probes over the stream's input at 1/2x, 1x and 2x its
  // background.
  const auto origin = Clock::now();
  Phase plain;
  Phase traced;
  traced.tracer = Tracer(true, origin);
  for (int quarter = 0; quarter < 4; ++quarter) {
    const bool trace = quarter == 1 || quarter == 2;
    (trace ? traced : plain)
        .absorb(run_phase(svc, options, options.seconds / 4, trace,
                          quarter * 100'000'000, origin, batches, next_batch,
                          scenarios, expectations));
  }
  note_phase(result, "untraced half", plain);
  note_phase(result, "traced half", traced);
  for (const Phase* phase : {&plain, &traced}) {
    result.attempted += phase->clients.attempted + phase->appends.attempted;
    result.failed += phase->clients.failed + phase->appends.failed;
  }
  add_store_tuples(result);
  const dp::sdn::Scenario s1 = dp::sdn::sdn1();
  const double share = probe_scales(result, s1.program, s1.topology, [&](double scale) {
    const auto packets = static_cast<std::size_t>(scale * kStreamBackground);
    return time_ordered(with_background(s1.log, make_background(options.seed, packets)));
  });
  split_replay_spans(traced.tracer, share);

  const ClientLog& c = traced.clients;
  const AppendLog& a = traced.appends;
  const auto submitted = static_cast<double>(std::max<std::uint64_t>(traced.submitted, 1));
  result.add("service.submit_us_p50", median(c.submit_us), "us");
  result.add("service.queue_ms_p50", median(c.queue_ms), "ms");
  result.add("service.exec_ms_p50", median(c.exec_ms), "ms");
  result.add("service.diagnose_ms_p90", percentile(c.diagnose_ms, 0.9), "ms");
  result.add("service.cache_hit_frac", static_cast<double>(traced.cache_hits) / submitted,
             "ratio");
  result.add("service.shed_frac", static_cast<double>(traced.shed) / submitted, "ratio");
  result.add("service.coalesced_frac", static_cast<double>(traced.coalesced) / submitted,
             "ratio");
  result.add("service.warm_resident_mb",
             static_cast<double>(traced.warm_resident_bytes) / (1 << 20), "MB");
  result.add("service.stream_query_ms_p50", median(c.stream_ms), "ms");
  result.add("diffprov.replays", mean(c.replays), "count");
  result.add("diffprov.rounds", mean(c.rounds), "count");
  result.add("diffprov.update_replay_ms", median(c.update_replay_ms), "ms");
  result.add("diffprov.reasoning_ms", median(c.reasoning_ms), "ms");
  result.add("provenance.locate_ms", median(c.locate_ms), "ms");
  double append_busy_s = 0;
  for (const double us : a.append_us) append_busy_s += us / 1e6;
  result.add("ingest.append_us_p50", median(a.append_us), "us");
  result.add("ingest.events_per_s",
             append_busy_s > 0 ? static_cast<double>(a.events) / append_busy_s : 0,
             "1/s");
  result.add("ingest.live_rebuilds", static_cast<double>(a.stream.live_rebuilds),
             "count");
  result.add("ingest.resident_mb",
             static_cast<double>(a.stream.resident_bytes) / (1 << 20), "MB");
  result.add("ingest.lag_ms_p50", median(a.lag_ms), "ms");
  result.add("ingest.lag_ms_p90", percentile(a.lag_ms, 0.9), "ms");

  std::map<int, std::string> group_of;
  for (const int id : c.ledger_ids) group_of[id] = "query";
  add_ledger_metrics(result, traced.tracer.spans(), group_of,
                     median(plain.clients.diagnose_ms), median(c.diagnose_ms), false);
  write_spans(traced.tracer.spans(), options.spans_path);
  return result;
}

}  // namespace perfbench
