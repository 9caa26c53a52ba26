#include "runtime/plan.h"

#include <algorithm>
#include <set>

namespace dp {

namespace {

/// Variable-name -> register-slot mapping built up during compilation.
class SlotTable {
 public:
  /// Slot of `name`, allocating the next free slot on first use.
  std::size_t slot_of(const std::string& name) {
    auto [it, inserted] = slots_.emplace(name, next_);
    if (inserted) ++next_;
    return it->second;
  }

  /// Slot of `name`; throws if the variable was never allocated (indicates
  /// a rule-safety bug -- validation runs before compilation).
  std::size_t require(const std::string& name) const {
    auto it = slots_.find(name);
    if (it == slots_.end()) {
      throw EvalError("plan compiler: unbound variable " + name);
    }
    return it->second;
  }

  [[nodiscard]] bool contains(const std::string& name) const {
    return slots_.count(name) != 0;
  }

  [[nodiscard]] std::size_t size() const { return next_; }

  /// Slots in variable-name order (std::map iteration).
  [[nodiscard]] std::vector<std::size_t> slots_by_name() const {
    std::vector<std::size_t> out;
    out.reserve(slots_.size());
    for (const auto& [name, slot] : slots_) out.push_back(slot);
    return out;
  }

 private:
  std::map<std::string, std::size_t> slots_;
  std::size_t next_ = 0;
};

/// Number of columns of `atom` that would be bound given `slots` (constants
/// plus variables already carrying a slot).
std::size_t bound_columns(const BodyAtom& atom, const SlotTable& slots) {
  std::size_t n = 0;
  for (const AtomArg& arg : atom.args) {
    if (!arg.is_var || slots.contains(arg.var)) ++n;
  }
  return n;
}

/// Compiles the unification pattern of one atom: constants match, first
/// variable occurrences bind a slot, repeats check it. `slots` gains the
/// newly bound variables.
std::vector<ColOp> compile_atom_ops(const BodyAtom& atom, SlotTable& slots) {
  std::vector<ColOp> ops;
  ops.reserve(atom.args.size());
  std::set<std::string> bound_here;
  for (std::size_t col = 0; col < atom.args.size(); ++col) {
    const AtomArg& arg = atom.args[col];
    ColOp op;
    op.col = col;
    if (!arg.is_var) {
      op.kind = ColOp::Kind::kConst;
      op.constant = arg.constant;
    } else if (slots.contains(arg.var) || bound_here.count(arg.var) != 0) {
      op.kind = ColOp::Kind::kCheck;
      op.slot = slots.slot_of(arg.var);
    } else {
      op.kind = ColOp::Kind::kBind;
      op.slot = slots.slot_of(arg.var);
      bound_here.insert(arg.var);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

RulePlan compile_plan(const Program& program, const Rule& rule,
                      std::size_t rule_index, std::size_t trigger_atom) {
  RulePlan plan;
  plan.rule_index = rule_index;
  plan.trigger_atom = trigger_atom;

  SlotTable slots;
  plan.trigger_ops = compile_atom_ops(rule.body[trigger_atom], slots);

  // Greedy join order over the remaining atoms: always place the atom with
  // the most bound columns next (ties by body position). More bound columns
  // means a narrower index probe, i.e. fewer candidates per step.
  std::vector<std::size_t> remaining;
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    if (i != trigger_atom) remaining.push_back(i);
  }
  while (!remaining.empty()) {
    std::size_t best = 0;
    std::size_t best_score = 0;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      const std::size_t score = bound_columns(rule.body[remaining[i]], slots);
      if (i == 0 || score > best_score) {
        best = i;
        best_score = score;
      }
    }
    const std::size_t body_index = remaining[best];
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best));

    const BodyAtom& atom = rule.body[body_index];
    JoinStep step;
    step.body_index = body_index;
    step.table = atom.table;
    // Identify probe columns *before* this atom binds anything: a variable
    // repeated within the atom only becomes bound mid-candidate.
    std::vector<bool> is_probe(atom.args.size(), false);
    for (std::size_t col = 0; col < atom.args.size(); ++col) {
      const AtomArg& arg = atom.args[col];
      is_probe[col] = !arg.is_var || slots.contains(arg.var);
    }
    step.ops = compile_atom_ops(atom, slots);
    for (const ColOp& op : step.ops) {
      if (is_probe[op.col]) {
        step.probe_cols.push_back(op.col);
        step.probe.push_back(op);
      } else {
        step.residual.push_back(op);
      }
    }
    plan.steps.push_back(std::move(step));
  }

  const auto resolve = [&slots](const std::string& name) {
    return slots.require(name);
  };
  for (const Assignment& assign : rule.assigns) {
    RulePlan::CompiledAssign compiled;
    compiled.expr = compile_expr(*assign.expr, resolve);
    compiled.slot = slots.slot_of(assign.var);  // may introduce a new slot
    plan.assigns.push_back(std::move(compiled));
  }
  for (const ExprPtr& constraint : rule.constraints) {
    plan.constraints.push_back(compile_expr(*constraint, resolve));
  }
  plan.head_args.reserve(rule.head.args.size());
  for (const ExprPtr& arg : rule.head.args) {
    if (rule.agg && arg->kind == Expr::Kind::kVar &&
        arg->var == rule.agg->var) {
      // Aggregate placeholder; the real value is resolved when the
      // serialized aggregate event is processed.
      SlotExpr placeholder;
      placeholder.kind = Expr::Kind::kConst;
      placeholder.constant = Value(std::int64_t{0});
      plan.head_args.push_back(std::move(placeholder));
      continue;
    }
    plan.head_args.push_back(compile_expr(*arg, resolve));
  }
  if (rule.argmax_var) plan.argmax_slot = slots.require(*rule.argmax_var);
  if (rule.agg && rule.agg->kind == AggSpec::Kind::kSum) {
    plan.agg_sum_slot = slots.require(rule.agg->sum_var);
  }
  plan.slot_count = slots.size();
  plan.slots_by_name = slots.slots_by_name();
  plan.body_key_cols.reserve(rule.body.size());
  for (const BodyAtom& atom : rule.body) {
    plan.body_key_cols.push_back(program.table(atom.table).key_columns);
  }
  return plan;
}

}  // namespace

std::map<std::string, std::vector<RulePlan>> compile_rule_plans(
    const Program& program) {
  std::map<std::string, std::vector<RulePlan>> plans;
  for (const auto& [table_name, decl] : program.tables()) {
    std::vector<RulePlan> for_table;
    for (const Program::BodyOccurrence& occurrence :
         program.body_occurrences_of(table_name)) {
      for_table.push_back(compile_plan(program,
                                       program.rules()[occurrence.rule],
                                       occurrence.rule, occurrence.atom));
    }
    if (!for_table.empty()) plans.emplace(table_name, std::move(for_table));
  }
  return plans;
}

}  // namespace dp
