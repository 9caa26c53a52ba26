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

 private:
  std::shared_ptr<const Engine> engine_;
};

/// One (re-)execution of the bad run: its provenance plus queryable state.
struct BadRun {
  std::shared_ptr<const ProvenanceGraph> graph;
  std::shared_ptr<const StateView> state;
};

/// Abstracts "re-execute the bad run with these changes". The declarative
/// provider replays an NDlog event log; the imperative MapReduce substrate
/// re-runs the instrumented job; the external-spec SDN substrate re-runs a
/// black-box forwarding simulator.
class ReplayProvider {
 public:
  virtual ~ReplayProvider() = default;
  virtual BadRun replay_bad(const Delta& delta) = 0;
};

/// Replays a recorded NDlog execution (the common case).
class LogReplayProvider final : public ReplayProvider {
 public:
  LogReplayProvider(const Program& program, Topology topology, EventLog log,
                    ReplayOptions options = {})
      : program_(&program),
        topology_(std::move(topology)),
        log_(std::move(log)),
        options_(std::move(options)) {}

  BadRun replay_bad(const Delta& delta) override {
    ReplayResult result = replay(*program_, topology_, log_, delta, options_);
    BadRun run;
    std::shared_ptr<Engine> engine = std::move(result.engine);
    std::shared_ptr<ProvenanceRecorder> recorder = std::move(result.recorder);
    run.graph = std::shared_ptr<const ProvenanceGraph>(recorder,
                                                       &recorder->graph());
    run.state = std::make_shared<EngineStateView>(engine);
    return run;
  }

 private:
  const Program* program_;
  Topology topology_;
  EventLog log_;
  ReplayOptions options_;
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

  [[nodiscard]] double reasoning_us() const {
    return find_seed_us + annotate_us + divergence_us + make_appear_us;
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

/// Convenience: locate the provenance tree of `event` in `graph` (its latest
/// EXIST) and project it. Returns nullopt if the event never existed.
std::optional<ProvTree> locate_tree(const ProvenanceGraph& graph,
                                    const Tuple& event);

}  // namespace dp
