// The DiffProv algorithm (paper section 4, Figure 3).
//
// Given the provenance tree of a "good" reference event and a "bad" event of
// interest, DiffProv computes Δ_{B→G}: a set of changes to *mutable base
// tuples* that transforms the bad tree into one equivalent to the good tree
// while preserving both seeds (Definition 1). Operationally, each round:
//
//   1. finds the seeds of both trees (section 4.2) and checks type
//      compatibility (section 4.3);
//   2. annotates the good tree with taint formulas (sections 4.3-4.4);
//   3. walks the two spines upward to the first divergence (section 4.4);
//   4. "makes the missing tuples appear" guided by the good tree: missing
//      mutable base tuples are added to Δ; missing derived tuples recurse
//      into their good-tree derivations; failing constraints are repaired by
//      solving for a mutable field (inverting builtins/arithmetic, section
//      4.5); tuples that win an argmax (flow-table priority) over the
//      expected derivation are removed as *blocking* tuples;
//   5. re-executes the bad run via deterministic replay with Δ injected
//      "shortly before needed" -- the clone-and-roll-forward of section 4.6
//      -- and re-projects the bad tree;
//
// until the trees are equivalent (success), a change would touch an
// immutable tuple or a non-invertible computation (failure, with the
// attempted change reported; section 4.7), or the round budget is exhausted.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "diffprov/annotate.h"
#include "diffprov/equivalence.h"
#include "diffprov/seed.h"
#include "replay/replay_engine.h"

namespace dp {

/// Read access to the (replayed) bad execution's state, independent of how
/// that execution runs: the NDlog engine (recorder modes "infer"/"report"),
/// or a black-box simulator interpreted through an external specification
/// (mode 3, paper section 6.7).
class StateView {
 public:
  virtual ~StateView() = default;
  /// True if `tuple` existed at logical time `at`.
  [[nodiscard]] virtual bool existed_at(const Tuple& tuple,
                                        LogicalTime at) const = 0;
  /// Iterates the tuples of `table` on `node` alive at `at`.
  virtual void scan_table(
      const NodeName& node, const std::string& table, LogicalTime at,
      const std::function<void(const Tuple&)>& fn) const = 0;
};

/// StateView over a live NDlog engine.
class EngineStateView final : public StateView {
 public:
  explicit EngineStateView(std::shared_ptr<const Engine> engine)
      : engine_(std::move(engine)) {}

  [[nodiscard]] bool existed_at(const Tuple& tuple,
                                LogicalTime at) const override {
    return engine_->existed_at(tuple, at);
  }
  void scan_table(
      const NodeName& node, const std::string& table, LogicalTime at,
      const std::function<void(const Tuple&)>& fn) const override {
    const Table* t = engine_->find_table(node, table);
    if (t != nullptr) t->for_each_at(at, fn);
  }
  /// The engine behind the view, e.g. to compare a forked run's tables and
  /// counts with a replay from t=0.
  [[nodiscard]] const Engine& engine() const { return *engine_; }

 private:
  std::shared_ptr<const Engine> engine_;
};

/// One (re-)execution of the bad run: its provenance plus queryable state.
struct BadRun {
  std::shared_ptr<const ProvenanceGraph> graph;
  std::shared_ptr<const StateView> state;
  /// Engine events this execution processed (0 when it was not replayed
  /// through the NDlog engine here). A forked execution counts only the
  /// events it ran past its fork point.
  std::uint64_t events_processed = 0;
  /// Forked from a fork point (LogReplayProvider) instead of replayed from
  /// t=0.
  bool forked = false;
  /// Wall time this execution spent copying state: taking fork points, or
  /// copying the point it forked from.
  double fork_copy_us = 0;
};

/// Abstracts "re-execute the bad run with these changes". The declarative
/// provider replays an NDlog event log; the imperative MapReduce substrate
/// re-runs the instrumented job; the external-spec SDN substrate re-runs a
/// black-box forwarding simulator.
class ReplayProvider {
 public:
  virtual ~ReplayProvider() = default;
  virtual BadRun replay_bad(const Delta& delta) = 0;
  /// replay_bad for a query that will locate only the tuples of `horizon`:
  /// the execution may stop once each of them has appeared and every event
  /// at that time has run (Engine::run), and runs in full when one never
  /// appears. Every read DiffProv makes gives the same answer on such a run
  /// as on a full one (DESIGN.md section 5). By default the run is full.
  virtual BadRun replay_bad_to(const Delta& delta,
                               const std::vector<Tuple>& horizon) {
    (void)horizon;
    return replay_bad(delta);
  }
};

/// Engine events between two fork points of a LogReplayProvider's first
/// replay, and how many of the latest points it keeps. DESIGN.md section 5
/// sizes both against measured copy and replay costs.
inline constexpr std::uint64_t kForkPointEvents = 8192;
inline constexpr std::size_t kForkPointsKept = 2;

/// How often a LogReplayProvider's first replay takes fork points, and how
/// many it keeps. Tests force small cadences on small inputs; the pipelines
/// keep the default.
struct ForkCadence {
  std::uint64_t every = kForkPointEvents;
  std::size_t keep = kForkPointsKept;
};

/// Replays a recorded NDlog execution (the common case).
///
/// Its first replay, when Δ-free and bounded by a horizon (a cold
/// diagnosis's initial replay), takes fork points: at a time-step boundary
/// once every `every` engine events it copies the engine (Engine::fork) and
/// the recorder, and keeps the latest `keep` copies. Every later replay
/// copies the latest point that lies before Δ's earliest operation and at
/// which no tuple of its horizon has appeared yet, schedules Δ there and
/// runs to the horizon: paper section 4.8's clone "shortly before" Δ is
/// needed. That run is event for event the tail of the replay from t=0 it
/// replaces; with no such point, the replay runs from t=0.
class LogReplayProvider final : public ReplayProvider {
 public:
  /// The first replay's state at a time-step boundary. Never run and never
  /// changed: each fork copies it.
  struct ForkPoint {
    std::shared_ptr<const Engine> engine;
    std::shared_ptr<const ProvenanceRecorder> recorder;
  };
  LogReplayProvider(const Program& program, Topology topology, EventLog log,
                    ReplayOptions options = {}, ForkCadence cadence = {})
      : program_(&program),
        topology_(std::move(topology)),
        log_(std::move(log)),
        options_(std::move(options)),
        cadence_(cadence) {}

  BadRun replay_bad(const Delta& delta) override {
    return replay_bad_to(delta, {});
  }

  BadRun replay_bad_to(const Delta& delta,
                       const std::vector<Tuple>& horizon) override;

  /// The fork points held, oldest first.
  [[nodiscard]] const std::vector<ForkPoint>& fork_points() const {
    return points_;
  }

 private:
  /// The latest point a replay of `delta` up to `horizon` may fork, or null.
  [[nodiscard]] const ForkPoint* fork_point_for(
      const Delta& delta, const std::vector<Tuple>& horizon) const;
  /// Copies `point`, schedules `delta` on the copy and runs it.
  BadRun fork_from(const ForkPoint& point, const Delta& delta,
                   const std::vector<Tuple>& horizon) const;

  const Program* program_;
  Topology topology_;
  EventLog log_;
  ReplayOptions options_;
  ForkCadence cadence_;
  bool replayed_ = false;
  std::vector<ForkPoint> points_;
};

enum class DiffProvStatus : std::uint8_t {
  kSuccess,
  kSeedTypeMismatch,   // seeds of different tables: trees not comparable
  kImmutableChange,    // alignment needs a change to an immutable tuple
  kNotInvertible,      // a computation could not be inverted (e.g. a hash)
  kBadEventNotFound,   // the queried bad event never happened in the replay
  kNoProgress,         // a round produced no new changes (possible race)
  kExhausted,          // round budget exceeded
};

std::string_view diffprov_status_name(DiffProvStatus status);

/// One human-level change: "tuple B became tuple A" / pure insert / delete.
/// Table 1's "DiffProv" row counts these records.
struct ChangeRecord {
  std::optional<Tuple> before;
  std::optional<Tuple> after;
  std::string note;
  /// Indices of this change's raw operations within DiffProvResult::delta
  /// (used by minimize_delta to drop a change as a unit).
  std::vector<std::size_t> op_indices;

  [[nodiscard]] std::string to_string() const;
};

/// Wall-clock decomposition of the reasoning (Figure 8) plus replay costs
/// (Figure 7).
struct DiffProvTiming {
  double find_seed_us = 0;
  double annotate_us = 0;
  double divergence_us = 0;   // spine walks + equivalence checks
  double make_appear_us = 0;  // includes constraint solving
  double replay_us = 0;       // UpdateTree replays (not reasoning)
  int replays = 0;
  std::uint64_t replayed_events = 0;  // engine events of those replays
  int forked_replays = 0;             // those forked from a fork point
  double fork_copy_us = 0;            // their state copies (in replay_us)

  [[nodiscard]] double reasoning_us() const {
    return find_seed_us + annotate_us + divergence_us + make_appear_us;
  }
  /// Books one replay that produced `run` in `us`.
  void add_replay(const BadRun& run, double us) {
    replay_us += us;
    ++replays;
    replayed_events += run.events_processed;
    forked_replays += run.forked ? 1 : 0;
    fork_copy_us += run.fork_copy_us;
  }
};

struct DiffProvResult {
  DiffProvStatus status = DiffProvStatus::kExhausted;
  Delta delta;                        // raw Δ_{B→G} operations
  std::vector<ChangeRecord> changes;  // human-level root cause estimate
  std::vector<std::size_t> changes_per_round;
  int rounds = 0;
  std::string message;  // failure diagnostics, incl. the attempted change
  DiffProvTiming timing;

  std::size_t good_tree_size = 0;
  std::size_t bad_tree_size = 0;  // initial bad tree

  /// The equivalence-by-construction map for the applied repairs and the
  /// bad tree's seed; carried so post-passes (minimize_delta) can re-verify
  /// alignment without re-deriving them.
  RepairMap repairs;
  std::optional<Tuple> bad_seed;
  LogicalTime bad_seed_time = 0;

  [[nodiscard]] bool ok() const { return status == DiffProvStatus::kSuccess; }
  [[nodiscard]] std::string to_string() const;
};

struct DiffProvConfig {
  int max_rounds = 8;
  std::size_t max_changes = 32;
  std::size_t max_recursion = 64;
};

class DiffProv {
 public:
  DiffProv(const Program& program, ReplayProvider& provider,
           DiffProvConfig config = {})
      : program_(&program), provider_(&provider), config_(config) {}

  /// Diagnoses why `bad_event` happened instead of the reference behaviour
  /// captured by `good_tree`. The bad execution is obtained from the replay
  /// provider; `good_tree` typically comes from a separate provenance query
  /// (possibly over a different log, e.g. an earlier MapReduce job).
  /// `initial_run` is the already-replayed bad execution the caller located
  /// its trees in. The CLI/service pipeline, the auto-reference search and
  /// mapred::diagnose all pass it, so a diagnosis replays only for its
  /// UpdateTree rounds. Without it, diagnose first replays the bad run with
  /// an empty Δ.
  DiffProvResult diagnose(const ProvTree& good_tree, const Tuple& bad_event,
                          std::optional<BadRun> initial_run = std::nullopt);

  /// Greedy post-pass addressing the paper's minimality limitation
  /// (section 4.9: "the set of changes returned by DiffProv is not
  /// necessarily the smallest"): tries dropping each change and keeps only
  /// those whose removal breaks the alignment. Each trial costs one replay.
  DiffProvResult minimize_delta(const ProvTree& good_tree,
                                const DiffProvResult& result);

  /// True if `delta` alone aligns the bad execution with `good_tree` (one
  /// replay + equivalence check); used by minimize_delta and exposed for
  /// tooling.
  bool delta_aligns(const ProvTree& good_tree, const Delta& delta,
                    const RepairMap& repairs, const Tuple& bad_seed);

 private:
  struct RoundState;

  bool make_appear(RoundState& state, ProvTree::NodeIndex good_derive,
                   const Tuple& expected_head, std::size_t depth);
  bool ensure_child(RoundState& state, ProvTree::NodeIndex good_child,
                    const Tuple& expected, std::size_t depth);
  bool repair_constraints(RoundState& state, const Rule& rule,
                          ProvTree::NodeIndex good_derive,
                          std::vector<Tuple>& expected_children,
                          std::size_t depth);
  bool clear_argmax_blockers(RoundState& state, const Rule& rule,
                             const std::vector<Tuple>& expected_children,
                             std::size_t trigger_index, std::size_t depth);
  void add_change(RoundState& state, const Tuple& new_tuple,
                  const std::string& note,
                  std::optional<Tuple> explicit_before = std::nullopt);
  void add_deletion(RoundState& state, const Tuple& victim,
                    const std::string& note);

  const Program* program_;
  ReplayProvider* provider_;
  DiffProvConfig config_;
};

/// Locates the provenance tree of `event` in `graph` -- its first
/// appearance, which a replay stopped at the query's horizon holds exactly
/// as a full run does -- and projects it. Returns nullopt if the event never
/// existed.
std::optional<ProvTree> locate_tree(const ProvenanceGraph& graph,
                                    const Tuple& event);

}  // namespace dp
