#include "service/diagnose.h"

#include <chrono>

#include "diffprov/reference.h"

namespace dp::service {

namespace {

double micros_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

DiagnoseOutcome diagnose_problem(const Problem& problem,
                                 const DiagnoseSpec& spec,
                                 const ReplayOptions& replay_options,
                                 std::shared_ptr<const BadRun> warm_run) {
  DiagnoseOutcome outcome;

  // The initial bad run: reuse the warm resident replay when the session
  // manager supplies one, else replay the log (the cold path). DiffProv
  // starts from this run either way, so it replays only for UpdateTree.
  LogReplayProvider provider(problem.program, problem.topology, problem.log,
                             replay_options);
  BadRun run;
  if (warm_run != nullptr) {
    outcome.profile.warm_reuse = true;
    run = *warm_run;
  } else {
    const auto replay_start = std::chrono::steady_clock::now();
    run = provider.replay_bad({});
    outcome.profile.initial_replay_us = micros_since(replay_start);
  }

  const auto locate_start = std::chrono::steady_clock::now();
  const auto bad_tree = locate_tree(*run.graph, spec.bad_event);
  outcome.profile.locate_us = micros_since(locate_start);
  if (!bad_tree) {
    outcome.err = "the event of interest " + spec.bad_event.to_string() +
                  " does not occur in the log\n";
    return outcome;
  }
  if (spec.show_tree == "bad") {
    outcome.pre = "provenance of " + spec.bad_event.to_string() + " (" +
                  std::to_string(bad_tree->size()) + " vertexes):\n" +
                  bad_tree->to_text() + "\n";
  }
  if (spec.want_dot) outcome.dot = bad_tree->to_dot();

  DiffProv diffprov(problem.program, provider);
  DiffProvResult result;
  if (spec.good_event) {
    const auto good_locate_start = std::chrono::steady_clock::now();
    const auto good_tree = locate_tree(*run.graph, *spec.good_event);
    outcome.profile.locate_us += micros_since(good_locate_start);
    if (!good_tree) {
      outcome.err = "the reference event " + spec.good_event->to_string() +
                    " does not occur in the log\n";
      return outcome;
    }
    if (spec.show_tree == "good") {
      outcome.out += "provenance of " + spec.good_event->to_string() + " (" +
                     std::to_string(good_tree->size()) + " vertexes):\n" +
                     good_tree->to_text() + "\n";
    }
    result = diffprov.diagnose(*good_tree, spec.bad_event, run);
    outcome.profile.timing = result.timing;
    if (spec.minimize && result.ok()) {
      const auto minimize_start = std::chrono::steady_clock::now();
      result = diffprov.minimize_delta(*good_tree, result);
      outcome.profile.minimize_us = micros_since(minimize_start);
    }
  } else {
    const AutoDiagnosis auto_result =
        diagnose_with_auto_reference(diffprov, run, spec.bad_event);
    if (auto_result.reference) {
      outcome.out += "auto-selected reference: " +
                     auto_result.reference->to_string() + " (after trying " +
                     std::to_string(auto_result.candidates_tried) +
                     " candidate(s))\n";
    }
    result = auto_result.result;
    outcome.profile.timing = result.timing;
    if (spec.minimize && result.ok() && auto_result.reference) {
      const auto minimize_start = std::chrono::steady_clock::now();
      const auto good_tree = locate_tree(*run.graph, *auto_result.reference);
      if (good_tree) result = diffprov.minimize_delta(*good_tree, result);
      outcome.profile.minimize_us = micros_since(minimize_start);
    }
  }

  outcome.profile.rounds = result.rounds;
  outcome.profile.good_tree_size = result.good_tree_size;
  outcome.profile.bad_tree_size = result.bad_tree_size;
  outcome.out += result.to_string();
  outcome.exit_code = result.ok() ? 0 : 1;
  return outcome;
}

}  // namespace dp::service
