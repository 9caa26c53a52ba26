// Compiled join plans for the delta evaluator.
//
// The engine fires a rule whenever a tuple arrives for one of its body
// atoms. Instead of re-resolving variable names and scanning whole tables on
// every firing, a compilation pass at Engine construction precomputes, for
// each (rule, trigger-atom) pair:
//
//  * a register file layout: every variable name is resolved once to an
//    integer slot, so the join carries a flat vector<Value> instead of a
//    string-keyed map;
//  * a greedy join order: the remaining body atoms are reordered so atoms
//    with more columns bound (by the trigger and by earlier steps) join
//    first -- those probes are the most selective;
//  * per-step probe specs: the set of columns bound at probe time, which the
//    engine turns into an O(1) lookup on the table's secondary hash index
//    (runtime/table.h) instead of a full scan;
//  * slot-compiled assignments, constraints, and head expressions
//    (ndlog/eval.h, SlotExpr).
//
// Reordering does not change observable behavior: after enumeration the
// engine restores the reference engine's candidate order (see
// Engine::fire_rule_planned), so scenario outputs and provenance trees are
// byte-identical to the full-scan path.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ndlog/eval.h"
#include "ndlog/program.h"
#include "runtime/table.h"

namespace dp {

/// One column of a body-atom pattern, resolved at compile time.
struct ColOp {
  enum class Kind : std::uint8_t {
    kConst,  // column must equal `constant`
    kCheck,  // column must equal regs[slot] (slot written earlier)
    kBind,   // write the column value into regs[slot] (first occurrence)
  };
  Kind kind = Kind::kConst;
  std::size_t col = 0;   // column position in the atom
  std::size_t slot = 0;  // kCheck / kBind
  Value constant;        // kConst
};

/// One non-trigger body atom, in greedy execution order.
struct JoinStep {
  std::size_t body_index = 0;  // original position in Rule::body
  std::string table;
  /// Every column, in column order (used on the full-scan fallback).
  std::vector<ColOp> ops;
  /// Columns bound at probe time (sorted): the secondary-index key. Empty
  /// means nothing is bound and the step degrades to a full scan.
  ColumnSet probe_cols;
  /// How to build the probe key, aligned with probe_cols (kConst/kCheck).
  std::vector<ColOp> probe;
  /// Ops for the remaining columns (kBind, plus kCheck for a variable
  /// repeated within this same atom) -- all a bucket candidate still needs.
  std::vector<ColOp> residual;
};

/// The full compiled plan for one (rule, trigger-atom) pair.
struct RulePlan {
  std::size_t rule_index = 0;
  std::size_t trigger_atom = 0;  // index into Rule::body
  /// Unification of the arriving tuple against the trigger atom.
  std::vector<ColOp> trigger_ops;
  /// Remaining body atoms, greedily ordered by bound-column count.
  std::vector<JoinStep> steps;
  /// Size of the register file.
  std::size_t slot_count = 0;

  struct CompiledAssign {
    std::size_t slot = 0;
    SlotExpr expr;
  };
  std::vector<CompiledAssign> assigns;   // in source order
  std::vector<SlotExpr> constraints;     // in source order
  /// Head argument expressions; for aggregate rules the aggregate column is
  /// compiled as a constant-0 placeholder (resolved in process_aggregate).
  std::vector<SlotExpr> head_args;
  std::optional<std::size_t> argmax_slot;
  std::optional<std::size_t> agg_sum_slot;  // sum aggregates: the summed var
  /// Slots of all named variables in variable-name order. Comparing regs in
  /// this sequence replicates the reference engine's Bindings-map ordering
  /// (argmax tie-breaking).
  std::vector<std::size_t> slots_by_name;
  /// Per original body atom: that table's declared key columns (empty =
  /// whole tuple). Projecting a chosen row on these yields its enumeration
  /// rank in the reference engine's table scan; used to restore the
  /// reference candidate order after the reordered join.
  std::vector<ColumnSet> body_key_cols;
};

/// Compiles every (rule, trigger-atom) plan of `program`, grouped by trigger
/// table in (rule index, atom index) order -- the delta evaluator's firing
/// order. The program must already be validated.
std::map<std::string, std::vector<RulePlan>> compile_rule_plans(
    const Program& program);

}  // namespace dp
