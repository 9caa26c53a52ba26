// The single diagnosis pipeline shared by the one-shot CLI and the
// diffprovd service: replay (or reuse a warm replay), locate the trees, run
// DiffProv (explicit reference or auto-selected), optionally minimize.
//
// Byte-identity is the contract: for the same problem and spec, the `out`
// text is identical whether the query ran cold in-process (CLI) or against a
// warm resident run inside the service. Replay is deterministic, so passing
// a previously-replayed run as the initial bad run changes nothing but the
// time spent; the serving-path acceptance test diffs the two outputs.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "diffprov/diffprov.h"
#include "service/problem.h"

namespace dp::service {

struct DiagnoseSpec {
  std::optional<Tuple> good_event;  // nullopt = auto-reference (section 4.9)
  Tuple bad_event;
  bool minimize = false;
  /// "good" | "bad" | "": print the tree before diagnosing (CLI only).
  std::string show_tree;
  /// Render the bad tree as Graphviz into DiagnoseOutcome::dot (CLI only).
  bool want_dot = false;
};

/// Where one diagnosis spent its wall time, in the paper's §4 phase
/// vocabulary (Figures 7-8), plus the serving-path costs around it. All
/// times are microseconds of wall clock inside diagnose_problem; the service
/// layer adds the phases it owns (session wait, warm-up) and an "other"
/// remainder so the phases sum to the reported exec time.
struct DiagnoseProfile {
  /// The initial bad run came from a warm session (no replay here).
  bool warm_reuse = false;
  double initial_replay_us = 0;  // cold-path replay of the recorded log
  double locate_us = 0;          // projecting the good/bad trees
  DiffProvTiming timing;         // reasoning + UpdateTree replay decomposition
  double minimize_us = 0;        // optional Δ-minimization post-pass
  /// Engine events of this diagnosis's replays: the cold initial replay
  /// plus every UpdateTree replay (a warm session's resident run is not
  /// replayed here and does not count).
  std::uint64_t replayed_events = 0;
  int rounds = 0;
  std::size_t good_tree_size = 0;
  std::size_t bad_tree_size = 0;
};

struct DiagnoseOutcome {
  /// 0 = diagnosis succeeded; 1 = event missing or diagnosis failed.
  int exit_code = 1;
  /// What the CLI prints to stdout for this query (tree dumps excluded --
  /// those land in `pre` so the CLI can interleave its --dot message).
  std::string out;
  /// Tree dumps requested via show_tree (printed before `out`).
  std::string pre;
  /// Error text (missing events); the CLI sends this to stderr.
  std::string err;
  /// Graphviz of the bad tree when want_dot was set.
  std::string dot;
  /// Wall-time decomposition of this run (see DiagnoseProfile).
  DiagnoseProfile profile;

  [[nodiscard]] bool ok() const { return exit_code == 0; }
};

/// Runs one diagnosis. `warm_run` optionally supplies an already-replayed
/// bad execution (the service's warm-session path); when absent the problem
/// log is replayed first (the CLI's cold path). Both yield identical text,
/// and DiffProv reuses that one run: profile.timing.replays counts only the
/// UpdateTree replays, one per round.
DiagnoseOutcome diagnose_problem(const Problem& problem,
                                 const DiagnoseSpec& spec,
                                 const ReplayOptions& replay_options,
                                 std::shared_ptr<const BadRun> warm_run = {});

}  // namespace dp::service
