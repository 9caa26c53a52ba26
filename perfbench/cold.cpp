// The cold workload: one closed-loop caller runs complete diagnoses back to
// back, each from the recorded inputs, alternating between
//
//   SDN1-SDN4   each log carrying seeded background packets on both sides of
//               the diagnosed ones; every call decodes the log's DPL2 bytes
//               and runs service::diagnose_problem (the CLI's cold path), and
//   MR1-D, MR2-D, MR1-I, MR2-I   over Figure 7's corpus through
//               mapred::diagnose (reference job + bad job + DiffProv).
//
// Every figure weighs the eight scenarios the same: it is taken per scenario
// and then averaged, so the round cut at the deadline does not move it.
#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common.h"
#include "inputs.h"
#include "mapred/scenario.h"
#include "sdn/scenario.h"
#include "service/diagnose.h"

namespace perfbench {

namespace {

constexpr int kSetupReps = 15;
const char* const kWrongRootCause = "no-such-root-cause";

/// Counts every replay a diagnosis asks for and, when tracing, records each
/// as a replay span. Replays through the NDlog engine are named "replay" /
/// "update_replay" (split_replay_spans later divides them into runtime and
/// provenance); the imperative MapReduce job's are "job_replay" /
/// "job_update_replay" and stay whole.
class CountingProvider final : public dp::ReplayProvider {
 public:
  CountingProvider(dp::ReplayProvider& inner, Tracer& tracer, bool engine_backed)
      : inner_(&inner), tracer_(&tracer), prefix_(engine_backed ? "" : "job_") {}

  dp::BadRun replay_bad(const dp::Delta& delta) override {
    ++replays_;
    const auto start = Clock::now();
    ScopedSpan span(*tracer_, "replay",
                    prefix_ + (delta.empty() ? "replay" : "update_replay"));
    dp::BadRun run = inner_->replay_bad(delta);
    ms_ += ms_since(start);
    return run;
  }

  [[nodiscard]] int replays() const { return replays_; }
  [[nodiscard]] double replay_ms() const { return ms_; }

 private:
  dp::ReplayProvider* inner_;
  Tracer* tracer_;
  std::string prefix_;
  int replays_ = 0;
  double ms_ = 0;
};

/// Replays and rounds per diagnosis as the program itself reports them (its
/// DiagnoseOutcome profile or DiffProvResult timing), by scenario.
struct ProgramCounts {
  std::map<std::string, std::vector<int>> replays;
  std::vector<double> rounds;

  void add(const std::string& group, int replay_count, int round_count) {
    replays[group].push_back(replay_count);
    rounds.push_back(round_count);
  }
};

/// Per-diagnosis facts of the traced run.
struct TracedDiagnosis {
  std::string group;
  int replays = 0;
  double update_replay_ms = 0;
  double reasoning_ms = 0;
  double locate_ms = 0;
  double decode_ms = 0;  // SDN only: the MR inputs are built in memory
  double wall_ms = 0;
};

/// Wall and process CPU time per call of a closed loop, by scenario.
struct Timed {
  std::map<std::string, std::vector<double>> wall_ms;
  std::map<std::string, std::vector<double>> cpu_ms;
  std::size_t calls = 0;
  std::uint64_t succeeded = 0;
  double elapsed_s = 0;
};

/// The closed loop: runs `one(i)` over the scenario indices round by round
/// until `seconds` have passed, cutting the last round at the deadline (the
/// first always runs whole). Every call counts in `result`, failures as
/// failed.
template <typename Fn>
Timed closed_loop(double seconds, const std::vector<std::string>& names,
                  Result& result, Fn one) {
  Timed timed;
  const auto start = Clock::now();
  for (bool first = true;; first = false) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (!first && ms_since(start) >= seconds * 1000.0) {
        timed.elapsed_s = ms_since(start) / 1000.0;
        return timed;
      }
      ++result.attempted;
      const auto call_start = Clock::now();
      const double cpu_start = cpu_seconds();
      bool ok = false;
      try {
        ok = one(i);
      } catch (const std::exception& e) {
        result.note("exception in " + names[i] + ": " + e.what());
      }
      timed.wall_ms[names[i]].push_back(ms_since(call_start));
      timed.cpu_ms[names[i]].push_back((cpu_seconds() - cpu_start) * 1000.0);
      ++timed.calls;
      if (ok) {
        ++timed.succeeded;
      } else {
        ++result.failed;
      }
    }
  }
}

/// Each scenario's mean, averaged over the scenarios: the per-call figure of
/// a mix in which every scenario weighs the same, whichever scenario the
/// run's cut round ended on.
double balanced_mean(const std::map<std::string, std::vector<double>>& groups) {
  std::vector<double> means;
  for (const auto& [name, values] : groups) means.push_back(mean(values));
  return mean(means);
}

void add_end_to_end(Result& result, double setup_s, const Timed& timed) {
  const double ok_share =
      static_cast<double>(timed.succeeded) /
      static_cast<double>(std::max<std::size_t>(timed.calls, 1));
  result.add("setup_s", setup_s, "s");
  result.add("diagnoses_per_s", ok_share * 1000.0 / balanced_mean(timed.wall_ms), "1/s");
  result.add("diagnose_ms_p50", balanced_median(timed.wall_ms), "ms");
  result.add("cpu_ms_per_diagnosis", balanced_mean(timed.cpu_ms), "ms");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  char line[256];
  for (const auto& [name, values] : timed.wall_ms) {
    std::snprintf(line, sizeof line, "  %-6s n=%zu median %.2f ms mean %.2f ms",
                  name.c_str(), values.size(), median(values), mean(values));
    result.note(line);
  }
  std::snprintf(line, sizeof line, "diagnoses: %zu in %.2f s (%llu ok)", timed.calls,
                timed.elapsed_s, static_cast<unsigned long long>(timed.succeeded));
  result.note(line);
}

/// "SDN1=3 SDN4=4 ..." (a range where a scenario's counts differ).
std::string count_line(const std::map<std::string, std::vector<int>>& counts) {
  std::string line;
  for (const auto& [group, values] : counts) {
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    line += " " + group + "=" + std::to_string(*lo);
    if (*hi != *lo) line += ".." + std::to_string(*hi);
  }
  return line;
}

/// diffprov.replays and .rounds come from the program's own outcomes, so a
/// change that removes a replay inside the pipeline shows without touching
/// the benchmark. The traced copy's decorator count is noted beside them; a
/// difference means the traced copy no longer makes the program's calls.
void add_traced_diffprov(Result& result, const ProgramCounts& program,
                         const std::vector<TracedDiagnosis>& traced) {
  std::map<std::string, std::vector<double>> update, reasoning, locate, decode;
  std::map<std::string, std::vector<int>> copy_replays;
  for (const TracedDiagnosis& t : traced) {
    update[t.group].push_back(t.update_replay_ms);
    reasoning[t.group].push_back(t.reasoning_ms);
    locate[t.group].push_back(t.locate_ms);
    if (t.decode_ms > 0) decode[t.group].push_back(t.decode_ms);
    copy_replays[t.group].push_back(t.replays);
  }
  std::vector<double> replay_counts;
  for (const auto& [group, counts] : program.replays) {
    replay_counts.insert(replay_counts.end(), counts.begin(), counts.end());
  }
  result.add("diffprov.replays", mean(replay_counts), "count");
  result.add("diffprov.update_replay_ms", balanced_median(update), "ms");
  result.add("diffprov.reasoning_ms", balanced_median(reasoning), "ms");
  result.add("diffprov.rounds", mean(program.rounds), "count");
  result.add("provenance.locate_ms", balanced_median(locate), "ms");
  result.add("replay.decode_ms", balanced_median(decode), "ms");
  result.note("replays per diagnosis (program):" + count_line(program.replays));
  result.note("replays per diagnosis (traced copy):" + count_line(copy_replays));
  if (count_line(program.replays) != count_line(copy_replays)) {
    result.note("the traced copy's replays differ from the program's: the ledger "
                "no longer follows the pipeline call for call");
  }
}

// --- SDN scenarios -------------------------------------------------------------

struct SdnInput {
  dp::sdn::Scenario scenario;
  std::string dpl2;  // the recorded log with background, serialized
};

std::vector<SdnInput> build_sdn_inputs(std::uint64_t seed, std::size_t packets) {
  const Background bg = make_background(seed, packets);
  std::vector<SdnInput> inputs;
  for (dp::sdn::Scenario& s : dp::sdn::all_scenarios()) {
    SdnInput input;
    std::ostringstream out;
    with_background(s.log, bg).serialize(out);
    input.dpl2 = out.str();
    input.scenario = std::move(s);
    inputs.push_back(std::move(input));
  }
  return inputs;
}

dp::EventLog decode(const std::string& bytes) {
  std::istringstream in(bytes);
  return dp::EventLog::deserialize(in);
}

bool sdn_outcome_ok(const dp::sdn::Scenario& s, const std::string& out,
                    bool ok, int rounds, bool wrong) {
  const std::string cause = wrong ? kWrongRootCause : s.expected_root_cause;
  return ok && out.find(cause) != std::string::npos &&
         rounds == s.expected_rounds &&
         out.find(std::to_string(s.expected_changes) + " change(s))") !=
             std::string::npos;
}

/// Records where the background sits relative to the diagnosed packets.
void note_sdn_inputs(Result& result, const SdnInput& input) {
  const dp::EventLog log = decode(input.dpl2);
  std::size_t before = 0, after = 0;
  for (const dp::LogRecord& r : log.records()) {
    const dp::Tuple& t = r.tuple();
    if (t.table() != "packet" || t.at(1).as_int() < 100000) continue;
    if (r.time < 1000) {
      ++before;
    } else if (r.time > 1100) {
      ++after;
    }
  }
  result.inputs.push_back({"background_packets", std::to_string(kBackgroundPackets)});
  result.inputs.push_back({"background_before_t1000", std::to_string(before)});
  result.inputs.push_back({"background_after_t1100", std::to_string(after)});
  result.inputs.push_back({"log_records", std::to_string(log.size())});
  result.inputs.push_back({"log_bytes", std::to_string(input.dpl2.size())});
}

/// service::diagnose_problem's cold path, call for call, with its calls
/// bracketed. Counts the diagnosis in `result`.
TracedDiagnosis traced_sdn(const SdnInput& in, Tracer& tracer, int id, bool wrong,
                           Result& result) {
  const dp::sdn::Scenario& s = in.scenario;
  TracedDiagnosis t;
  t.group = s.name;
  const auto call_start = Clock::now();
  {
    ScopedSpan root(tracer, "", "diagnose " + s.name, id);
    dp::EventLog log;
    {
      const auto t0 = Clock::now();
      ScopedSpan span(tracer, "replay", "decode");
      log = decode(in.dpl2);
      t.decode_ms = ms_since(t0);
    }
    dp::service::Problem problem{s.program, s.topology, std::move(log),
                                 s.good_event, s.bad_event};
    dp::LogReplayProvider query_inner(problem.program, problem.topology, problem.log);
    CountingProvider query_provider(query_inner, tracer, true);
    const dp::BadRun run = query_provider.replay_bad({});
    const auto locate_start = Clock::now();
    std::optional<dp::ProvTree> bad_tree, good_tree;
    {
      ScopedSpan span(tracer, "provenance", "locate_bad");
      bad_tree = dp::locate_tree(*run.graph, s.bad_event);
    }
    dp::LogReplayProvider inner(problem.program, problem.topology, problem.log);
    CountingProvider provider(inner, tracer, true);
    dp::DiffProv diffprov(problem.program, provider);
    {
      ScopedSpan span(tracer, "provenance", "locate_good");
      good_tree = dp::locate_tree(*run.graph, s.good_event);
    }
    t.locate_ms = ms_since(locate_start);
    bool ok = bad_tree.has_value() && good_tree.has_value();
    if (ok) {
      const auto diag_start = Clock::now();
      dp::DiffProvResult diag_result;
      {
        ScopedSpan span(tracer, "diffprov", "diagnose");
        diag_result = diffprov.diagnose(*good_tree, s.bad_event);
      }
      t.update_replay_ms = provider.replay_ms();
      t.reasoning_ms = ms_since(diag_start) - provider.replay_ms();
      ok = sdn_outcome_ok(s, diag_result.to_string(), diag_result.ok(),
                          diag_result.rounds, wrong) &&
           diag_result.changes.size() == s.expected_changes;
    }
    t.replays = query_provider.replays() + provider.replays();
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      result.note("traced diagnosis failed: " + s.name);
    }
  }
  t.wall_ms = ms_since(call_start);
  return t;
}

// --- MR scenarios --------------------------------------------------------------

dp::mapred::CorpusConfig fig7_corpus(std::uint64_t seed, double scale = 1.0) {
  dp::mapred::CorpusConfig corpus;
  corpus.files = 8;
  corpus.lines_per_file = static_cast<std::size_t>(250 * scale);
  corpus.seed = seed;
  return corpus;
}

bool mr_result_ok(const dp::mapred::Scenario& s, const dp::DiffProvResult& r,
                  bool wrong) {
  const std::string cause = wrong ? kWrongRootCause : s.expected_root_cause;
  return r.ok() && r.changes.size() == 1 &&
         r.changes[0].to_string().find(cause) != std::string::npos;
}

/// mapred::diagnose, call for call, with its calls bracketed. Counts the
/// diagnosis in `result`.
TracedDiagnosis traced_mr(const dp::mapred::Scenario& s, Tracer& tracer, int id,
                          bool wrong, Result& result) {
  TracedDiagnosis t;
  t.group = s.name;
  const auto call_start = Clock::now();
  {
    ScopedSpan root(tracer, "", "diagnose " + s.name, id);
    std::unique_ptr<dp::ReplayProvider> good_inner, bad_inner;
    dp::EventLog good_log, bad_log;
    dp::Topology topology;
    if (s.declarative) {
      ScopedSpan span(tracer, "replay", "job_log");
      good_log = dp::mapred::declarative_job_log(s.store, s.good_config);
      bad_log = dp::mapred::declarative_job_log(s.store, s.bad_config);
      good_inner = std::make_unique<dp::LogReplayProvider>(s.model, topology, good_log);
      bad_inner = std::make_unique<dp::LogReplayProvider>(s.model, topology, bad_log);
    } else {
      good_inner =
          std::make_unique<dp::mapred::WordCountReplayProvider>(s.store, s.good_config);
      bad_inner =
          std::make_unique<dp::mapred::WordCountReplayProvider>(s.store, s.bad_config);
    }
    // The imperative job replays without the NDlog engine.
    CountingProvider good_provider(*good_inner, tracer, s.declarative);
    CountingProvider bad_provider(*bad_inner, tracer, s.declarative);
    const dp::BadRun good_run = good_provider.replay_bad({});
    std::optional<dp::ProvTree> good_tree, bad_tree;
    const auto locate_start = Clock::now();
    {
      ScopedSpan span(tracer, "provenance", "locate_good");
      good_tree = dp::locate_tree(*good_run.graph, s.good_event);
    }
    t.locate_ms = ms_since(locate_start);
    const dp::BadRun bad_run = bad_provider.replay_bad({});
    const auto locate_bad_start = Clock::now();
    {
      ScopedSpan span(tracer, "provenance", "locate_bad");
      bad_tree = dp::locate_tree(*bad_run.graph, s.bad_event);
    }
    t.locate_ms += ms_since(locate_bad_start);
    bool ok = good_tree.has_value() && bad_tree.has_value();
    if (ok) {
      const double replay_before = bad_provider.replay_ms();
      const auto diag_start = Clock::now();
      dp::DiffProvResult diag_result;
      {
        ScopedSpan span(tracer, "diffprov", "diagnose");
        dp::DiffProv diffprov(s.model, bad_provider);
        diag_result = diffprov.diagnose(*good_tree, s.bad_event);
      }
      t.update_replay_ms = bad_provider.replay_ms() - replay_before;
      t.reasoning_ms = ms_since(diag_start) - t.update_replay_ms;
      ok = mr_result_ok(s, diag_result, wrong);
    }
    t.replays = good_provider.replays() + bad_provider.replays();
    ++result.attempted;
    if (!ok) {
      ++result.failed;
      result.note("traced diagnosis failed: " + s.name);
    }
  }
  t.wall_ms = ms_since(call_start);
  return t;
}

/// One scenario of the round: an SDN input or an MR scenario.
struct Case {
  const SdnInput* sdn = nullptr;
  const dp::mapred::Scenario* mr = nullptr;

  [[nodiscard]] std::string name() const { return sdn ? sdn->scenario.name : mr->name; }
};

}  // namespace

Result run_cold(const Options& options) {
  Result result;
  std::vector<SdnInput> sdn_inputs;
  std::vector<dp::mapred::Scenario> mr_scenarios;
  const double setup_s = timed_setup(
      result, kSetupReps,
      [&] {
        sdn_inputs = build_sdn_inputs(options.seed, kBackgroundPackets);
        mr_scenarios = dp::mapred::all_scenarios(fig7_corpus(options.seed));
      },
      [&] {
        sdn_inputs.clear();
        mr_scenarios.clear();
      });
  // A round alternates the families: SDN1, MR1-D, SDN2, MR2-D, ...
  std::vector<Case> cases;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < std::max(sdn_inputs.size(), mr_scenarios.size()); ++i) {
    if (i < sdn_inputs.size()) cases.push_back({&sdn_inputs[i], nullptr});
    if (i < mr_scenarios.size()) cases.push_back({nullptr, &mr_scenarios[i]});
  }
  for (const Case& c : cases) names.push_back(c.name());
  note_sdn_inputs(result, sdn_inputs.front());
  result.inputs.push_back({"corpus_files", "8"});
  result.inputs.push_back({"corpus_lines_per_file", "250"});
  result.inputs.push_back(
      {"corpus_bytes", std::to_string(mr_scenarios.front().store.corpus().total_bytes())});

  ProgramCounts program;
  const auto diagnose = [&](std::size_t i) {
    if (const SdnInput* in = cases[i].sdn) {
      const dp::sdn::Scenario& s = in->scenario;
      dp::service::Problem problem{s.program, s.topology, decode(in->dpl2),
                                   s.good_event, s.bad_event};
      dp::service::DiagnoseSpec spec;
      spec.good_event = s.good_event;
      spec.bad_event = s.bad_event;
      const dp::service::DiagnoseOutcome outcome =
          dp::service::diagnose_problem(problem, spec, {});
      const dp::service::DiagnoseProfile& p = outcome.profile;
      program.add(s.name, (p.warm_reuse ? 0 : 1) + p.timing.replays, p.rounds);
      return sdn_outcome_ok(s, outcome.out, outcome.ok(), p.rounds,
                            options.wrong_expectation);
    }
    const dp::mapred::Scenario& s = *cases[i].mr;
    const dp::mapred::Diagnosis d = dp::mapred::diagnose(s);
    // mapred::diagnose replays the good and the bad job once each before
    // DiffProv runs; only DiffProv's own replays are reported back.
    program.add(s.name, 2 + d.result.timing.replays, d.result.rounds);
    return mr_result_ok(s, d.result, options.wrong_expectation);
  };

  // One untimed round first, so that the process-wide tuple store and the
  // allocator have grown before timing (a resident user pays that once; a
  // scenario's first call runs 30-70% slower than its later ones). A traced
  // run then splits its time between an untraced and a traced half.
  closed_loop(0, names, result, diagnose);
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const Timed timed = closed_loop(seconds, names, result, diagnose);
  if (!options.trace) {
    add_end_to_end(result, setup_s, timed);
    return result;
  }

  // Traced half: the same pipelines with their calls bracketed, SDN and MR
  // spans kept apart until each is split by its own engine share.
  const auto origin = Clock::now();
  Tracer sdn_tracer(true, origin);
  Tracer mr_tracer(true, origin);
  std::vector<TracedDiagnosis> traced;
  std::map<int, std::string> group_of;
  std::map<std::string, std::vector<double>> traced_wall;
  for (bool first = true; first || ms_since(origin) < seconds * 1000.0; first = false) {
    for (const Case& c : cases) {
      const int id = static_cast<int>(traced.size());
      TracedDiagnosis t =
          c.sdn ? traced_sdn(*c.sdn, sdn_tracer, id, options.wrong_expectation, result)
                : traced_mr(*c.mr, mr_tracer, id, options.wrong_expectation, result);
      group_of[id] = t.group;
      traced_wall[t.group].push_back(t.wall_ms);
      traced.push_back(std::move(t));
    }
  }
  add_store_tuples(result);
  // Probes last, so their larger inputs do not grow the tuple store before
  // the timed halves. They fix each family's engine share of a replay; the
  // runtime.* figures are SDN1's, MR1-D's are noted.
  const dp::sdn::Scenario& s1 = sdn_inputs.front().scenario;
  const double sdn_share =
      probe_scales(result, s1.program, s1.topology, [&](double scale) {
        const auto packets = static_cast<std::size_t>(scale * kBackgroundPackets);
        return with_background(s1.log, make_background(options.seed, packets));
      });
  Result mr_probe;
  const double mr_share =
      probe_scales(mr_probe, mr_scenarios.front().model, dp::Topology{}, [&](double scale) {
        const dp::mapred::Scenario s =
            dp::mapred::mr1_declarative(fig7_corpus(options.seed, scale));
        return dp::mapred::declarative_job_log(s.store, s.bad_config);
      });
  for (const std::string& line : mr_probe.notes) result.note("MR1-D " + line);
  split_replay_spans(sdn_tracer, sdn_share);
  split_replay_spans(mr_tracer, mr_share);
  Tracer tracer(true, origin);
  tracer.merge(sdn_tracer);
  tracer.merge(mr_tracer);
  add_traced_diffprov(result, program, traced);
  add_ledger_metrics(result, tracer.spans(), group_of, balanced_median(timed.wall_ms),
                     balanced_median(traced_wall), true);
  write_spans(tracer.spans(), options.spans_path);
  return result;
}

}  // namespace perfbench
