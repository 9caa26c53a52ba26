#include "diffprov/diffprov.h"

#include <chrono>
#include <set>

#include "ndlog/eval.h"
#include "obs/obs.h"
#include "util/logging.h"

namespace dp {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// Span over a whole diagnosis plus summary counters published when it ends
/// (RAII, so every return path of diagnose() is covered).
class DiagnoseScope {
 public:
  explicit DiagnoseScope(const DiffProvResult& result)
      : span_(obs::default_tracer(), "dp.diffprov.diagnose", "diffprov"),
        result_(result) {}
  ~DiagnoseScope() {
    // While the diagnose span is still open: a profile that covers a
    // diagnosis is never empty, even if no sampler tick landed in it.
    obs::Recorder::instance().sample_self_if_empty();
    auto& registry = obs::default_registry();
    registry.counter("dp.diffprov.diagnoses").inc();
    if (result_.ok()) registry.counter("dp.diffprov.successes").inc();
    registry.counter("dp.diffprov.rounds")
        .inc(static_cast<std::uint64_t>(result_.rounds));
    registry.counter("dp.diffprov.replays")
        .inc(static_cast<std::uint64_t>(result_.timing.replays));
    registry.counter("dp.diffprov.changes").inc(result_.changes.size());
  }
  DiagnoseScope(const DiagnoseScope&) = delete;
  DiagnoseScope& operator=(const DiagnoseScope&) = delete;

 private:
  obs::Span span_;
  const DiffProvResult& result_;
};

/// Unifies `atom` against a concrete tuple into `bindings` (concrete
/// values). Returns false on conflict.
bool unify_concrete(const BodyAtom& atom, const Tuple& tuple,
                    Bindings& bindings) {
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    const AtomArg& arg = atom.args[i];
    if (arg.is_var) {
      auto [it, inserted] = bindings.emplace(arg.var, tuple.at(i));
      if (!inserted && !(it->second == tuple.at(i))) return false;
    } else if (!(arg.constant == tuple.at(i))) {
      return false;
    }
  }
  return true;
}

FormulaEnv const_env_from(const Bindings& bindings) {
  FormulaEnv env;
  for (const auto& [var, value] : bindings) {
    env.emplace(var, Formula::make_const(value));
  }
  return env;
}

/// Solves `constraint(bindings[var := ?])` to become true by picking a new
/// value for `var`. Handles `lhs == rhs` via expression inversion (which
/// consults builtin solvers with the variable's current value), truthy
/// builtin calls, and simple ordered comparisons on a bare variable.
std::optional<Value> solve_constraint_for_var(const Expr& constraint,
                                              const Bindings& bindings,
                                              const std::string& var) {
  const FormulaEnv env = const_env_from(bindings);
  auto eval_formula = [](const FormulaPtr& f) -> std::optional<Value> {
    try {
      return f->eval({});
    } catch (const EvalError&) {
      return std::nullopt;
    }
  };
  auto mentions_var = [&var](const Expr& e) {
    std::vector<std::string> vars;
    e.collect_vars(vars);
    for (const std::string& v : vars) {
      if (v == var) return true;
    }
    return false;
  };

  if (constraint.kind == Expr::Kind::kBinary &&
      is_comparison(constraint.op)) {
    const Expr& lhs = *constraint.children[0];
    const Expr& rhs = *constraint.children[1];
    const bool in_lhs = mentions_var(lhs);
    const bool in_rhs = mentions_var(rhs);
    if (in_lhs == in_rhs) return std::nullopt;
    const Expr& unknown_side = in_lhs ? lhs : rhs;
    const Expr& known_side = in_lhs ? rhs : lhs;
    Value other;
    try {
      Bindings without;  // known side must not need `var`
      other = eval_expr(known_side, bindings);
      (void)without;
    } catch (const EvalError&) {
      return std::nullopt;
    }
    switch (constraint.op) {
      case BinOp::kEq: {
        auto inv = invert_expr_for_var(unknown_side, var,
                                       Formula::make_const(other), env);
        if (!inv) return std::nullopt;
        return eval_formula(*inv);
      }
      case BinOp::kNe:
        if (unknown_side.kind == Expr::Kind::kVar && other.is_int()) {
          return Value(other.as_int() + 1);
        }
        return std::nullopt;
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        if (unknown_side.kind != Expr::Kind::kVar || !other.is_int()) {
          return std::nullopt;
        }
        const std::int64_t o = other.as_int();
        const bool var_is_left = in_lhs;
        switch (constraint.op) {
          case BinOp::kLt: return Value(var_is_left ? o - 1 : o + 1);
          case BinOp::kLe: return Value(o);
          case BinOp::kGt: return Value(var_is_left ? o + 1 : o - 1);
          case BinOp::kGe: return Value(o);
          default: return std::nullopt;
        }
      }
      default:
        return std::nullopt;
    }
  }
  // Truthy form, e.g. a bare builtin call: solve expr == 1.
  auto inv = invert_expr_for_var(constraint, var,
                                 Formula::make_const(Value(1)), env);
  if (!inv) return std::nullopt;
  return eval_formula(*inv);
}

}  // namespace

std::string_view diffprov_status_name(DiffProvStatus status) {
  switch (status) {
    case DiffProvStatus::kSuccess: return "success";
    case DiffProvStatus::kSeedTypeMismatch: return "seed-type-mismatch";
    case DiffProvStatus::kImmutableChange: return "immutable-change-required";
    case DiffProvStatus::kNotInvertible: return "not-invertible";
    case DiffProvStatus::kBadEventNotFound: return "bad-event-not-found";
    case DiffProvStatus::kNoProgress: return "no-progress";
    case DiffProvStatus::kExhausted: return "round-budget-exhausted";
  }
  return "?";
}

std::string ChangeRecord::to_string() const {
  std::string out;
  if (before && after) {
    out = "change " + before->to_string() + " -> " + after->to_string();
  } else if (after) {
    out = "insert " + after->to_string();
  } else if (before) {
    out = "delete " + before->to_string();
  }
  if (!note.empty()) out += "  [" + note + "]";
  return out;
}

std::string DiffProvResult::to_string() const {
  std::string out = "DiffProv: ";
  out += diffprov_status_name(status);
  out += " (" + std::to_string(rounds) + " round(s), " +
         std::to_string(changes.size()) + " change(s))\n";
  for (const ChangeRecord& change : changes) {
    out += "  " + change.to_string() + "\n";
  }
  if (!message.empty()) out += "  note: " + message + "\n";
  return out;
}

std::optional<ProvTree> locate_tree(const ProvenanceGraph& graph,
                                    const Tuple& event) {
  const auto exist = graph.latest_exist_before(event, kTimeInfinity);
  if (!exist) return std::nullopt;
  return ProvTree::project(graph, *exist);
}

// ---------------------------------------------------------------------------

struct DiffProv::RoundState {
  const ProvTree* good = nullptr;
  const TreeAnnotations* ann = nullptr;
  std::vector<Value> seed_b;
  LogicalTime t_check = 0;
  LogicalTime t_apply = 0;

  const StateView* view = nullptr;
  const ProvenanceGraph* graph = nullptr;

  Delta* delta = nullptr;
  std::vector<ChangeRecord>* changes = nullptr;
  std::set<std::string>* seen_ops = nullptr;
  RepairMap* repairs = nullptr;
  std::size_t round_new_ops = 0;

  DiffProvStatus fail_status = DiffProvStatus::kSuccess;
  std::string fail_message;

  bool fail(DiffProvStatus status, std::string message) {
    fail_status = status;
    fail_message = std::move(message);
    return false;
  }
};

namespace {

/// Existence of `tuple` in the (current) bad execution: materialized tuples
/// are checked "as of" the bad seed's time; event tuples are checked against
/// the provenance graph (they never persist in tables).
bool exists_in_bad(const Program& program, const StateView& view,
                   const ProvenanceGraph& graph, const Tuple& tuple,
                   LogicalTime t_check) {
  const TableDecl& decl = program.table(tuple.table());
  if (decl.is_event()) return !graph.exists_of(tuple).empty();
  return view.existed_at(tuple, t_check);
}

/// The live tuple holding `t`'s key in the bad state at `at` (the "before"
/// of a change record), if any.
std::optional<Tuple> find_current_by_key(const Program& program,
                                         const StateView& view,
                                         const Tuple& t, LogicalTime at) {
  const TableDecl& decl = program.table(t.table());
  const auto key_of = [&decl](const Tuple& tuple) {
    std::vector<Value> key;
    if (decl.key_columns.empty()) {
      key = tuple.values();
    } else {
      for (std::size_t col : decl.key_columns) key.push_back(tuple.at(col));
    }
    return key;
  };
  const std::vector<Value> wanted = key_of(t);
  std::optional<Tuple> found;
  view.scan_table(t.location(), t.table(), at, [&](const Tuple& candidate) {
    if (!found && key_of(candidate) == wanted) found = candidate;
  });
  return found;
}

/// Registers that the default expected tuple `before` is realized as `after`
/// by this diagnosis. Entries are keyed by the raw (annotation-evaluated)
/// tuple, so chained repairs update the existing entry.
void record_repair(RepairMap& repairs, const Tuple& before,
                   const Tuple& after) {
  for (auto& [raw, current] : repairs) {
    if (current == before) {
      current = after;
      return;
    }
  }
  repairs.emplace(before, after);
}

}  // namespace

void DiffProv::add_change(RoundState& state, const Tuple& new_tuple,
                          const std::string& note,
                          std::optional<Tuple> explicit_before) {
  // The displaced tuple: the caller's pre-repair version if it actually
  // exists in the bad state, else whatever currently holds the key.
  std::optional<Tuple> before;
  if (explicit_before &&
      exists_in_bad(*program_, *state.view, *state.graph, *explicit_before,
                    state.t_check)) {
    before = std::move(explicit_before);
  } else {
    before = find_current_by_key(*program_, *state.view, new_tuple,
                                 state.t_check);
  }
  if (before && *before == new_tuple) return;  // already as desired

  ChangeRecord record;
  record.before = before;
  record.after = new_tuple;
  record.note = note;

  Delta ops;
  if (before) {
    // An explicit delete keeps the semantics independent of whether the
    // table's key columns cover the changed field.
    ops.push_back({DeltaOp::Kind::kDelete, *before, state.t_apply});
  }
  ops.push_back({DeltaOp::Kind::kInsert, new_tuple, state.t_apply});

  bool any_new = false;
  for (DeltaOp& op : ops) {
    if (state.seen_ops->insert(op.to_string()).second) {
      record.op_indices.push_back(state.delta->size());
      state.delta->push_back(std::move(op));
      any_new = true;
    }
  }
  if (any_new) {
    state.changes->push_back(std::move(record));
    ++state.round_new_ops;
  }
}

void DiffProv::add_deletion(RoundState& state, const Tuple& victim,
                            const std::string& note) {
  DeltaOp op{DeltaOp::Kind::kDelete, victim, state.t_apply};
  if (!state.seen_ops->insert(op.to_string()).second) return;
  ChangeRecord record;
  record.before = victim;
  record.note = note;
  record.op_indices.push_back(state.delta->size());
  state.delta->push_back(std::move(op));
  state.changes->push_back(std::move(record));
  ++state.round_new_ops;
}

bool DiffProv::ensure_child(RoundState& state, ProvTree::NodeIndex good_child,
                            const Tuple& expected, std::size_t depth) {
  if (depth > config_.max_recursion) {
    return state.fail(DiffProvStatus::kExhausted,
                      "recursion limit reached while making tuples appear");
  }
  // Pending inserts from this diagnosis count as existing.
  if (state.seen_ops->count(
          DeltaOp{DeltaOp::Kind::kInsert, expected, state.t_apply}
              .to_string()) != 0) {
    return true;
  }
  if (exists_in_bad(*program_, *state.view, *state.graph, expected,
                    state.t_check)) {
    return true;
  }
  const TableDecl& decl = program_->table(expected.table());
  if (decl.kind == TupleKind::kBase) {
    if (decl.mutability == Mutability::kImmutable) {
      return state.fail(
          DiffProvStatus::kImmutableChange,
          "aligning the trees requires changing the immutable base tuple " +
              expected.to_string() +
              "; pick a reference whose provenance shares this tuple");
    }
    add_change(state, expected, "missing base tuple (made to appear)");
    return true;
  }
  // Derived: recurse into the derivation that produced the good counterpart.
  const ProvTree& good = *state.good;
  for (ProvTree::NodeIndex appear : good.node(good_child).children) {
    for (ProvTree::NodeIndex derive : good.node(appear).children) {
      if (good.vertex_of(derive).kind == VertexKind::kDerive) {
        return make_appear(state, derive, expected, depth + 1);
      }
    }
  }
  return state.fail(DiffProvStatus::kNotInvertible,
                    "no derivation of " +
                        good.vertex_of(good_child).tuple().to_string() +
                        " in the reference tree (unexpanded boundary)");
}

bool DiffProv::repair_constraints(RoundState& state, const Rule& rule,
                                  ProvTree::NodeIndex good_derive,
                                  std::vector<Tuple>& expected_children,
                                  std::size_t depth) {
  // Bind variables from the expected children, then run assignments.
  Bindings bindings;
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    if (!unify_concrete(rule.body[i], expected_children[i], bindings)) {
      return state.fail(DiffProvStatus::kNotInvertible,
                        "inconsistent expected bindings for rule " +
                            rule.name);
    }
  }
  auto run_assigns = [&]() -> bool {
    try {
      for (const Assignment& assign : rule.assigns) {
        bindings[assign.var] = eval_expr(*assign.expr, bindings);
      }
      return true;
    } catch (const EvalError&) {
      return false;
    }
  };
  if (!run_assigns()) {
    return state.fail(DiffProvStatus::kNotInvertible,
                      "assignment failed under expected bindings (rule " +
                          rule.name + ")");
  }

  for (const ExprPtr& constraint : rule.constraints) {
    bool satisfied = false;
    try {
      satisfied = is_truthy(eval_expr(*constraint, bindings));
    } catch (const EvalError&) {
      satisfied = false;
    }
    if (satisfied) continue;

    // The expected derivation is blocked by this constraint. Solve for a
    // new value of some variable that is bound by a *changeable* tuple
    // field: mutable base tuples first, then derived tuples (pushing the
    // change down their derivation).
    std::vector<std::string> vars;
    constraint->collect_vars(vars);
    bool repaired = false;
    bool saw_immutable_candidate = false;
    for (int pass = 0; pass < 2 && !repaired; ++pass) {
      for (const std::string& var : vars) {
        // Locate the binding position of `var` in the body.
        std::size_t atom_index = rule.body.size();
        std::size_t arg_index = 0;
        for (std::size_t i = 0;
             i < rule.body.size() && atom_index == rule.body.size(); ++i) {
          for (std::size_t j = 0; j < rule.body[i].args.size(); ++j) {
            if (rule.body[i].args[j].is_var &&
                rule.body[i].args[j].var == var) {
              atom_index = i;
              arg_index = j;
              break;
            }
          }
        }
        if (atom_index == rule.body.size()) continue;  // assigned var
        const TableDecl& decl =
            program_->table(rule.body[atom_index].table);
        const bool is_mutable_base =
            decl.kind == TupleKind::kBase &&
            decl.mutability == Mutability::kMutable;
        if (decl.kind == TupleKind::kBase && !is_mutable_base) {
          saw_immutable_candidate = true;
          continue;
        }
        if (pass == 0 && !is_mutable_base) continue;  // base first
        if (pass == 1 && is_mutable_base) continue;

        const auto solved =
            solve_constraint_for_var(*constraint, bindings, var);
        if (!solved) continue;
        Tuple repaired_child =
            expected_children[atom_index].with_field(arg_index, *solved);
        record_repair(*state.repairs, expected_children[atom_index],
                      repaired_child);
        if (is_mutable_base) {
          add_change(state, repaired_child,
                     "repairs failing constraint " + constraint->to_string(),
                     expected_children[atom_index]);
        } else if (!ensure_child(
                       state,
                       state.good->node(good_derive).children[atom_index],
                       repaired_child, depth + 1)) {
          return false;
        }
        expected_children[atom_index] = std::move(repaired_child);
        bindings[var] = *solved;
        if (!run_assigns()) continue;
        try {
          repaired = is_truthy(eval_expr(*constraint, bindings));
        } catch (const EvalError&) {
          repaired = false;
        }
        if (repaired) break;
      }
    }
    if (!repaired) {
      const std::string attempted =
          "constraint " + constraint->to_string() +
          " cannot be satisfied for the event of interest";
      if (saw_immutable_candidate) {
        return state.fail(DiffProvStatus::kImmutableChange,
                          attempted +
                              " without changing an immutable tuple (e.g. "
                              "the packet itself or a static entry)");
      }
      return state.fail(DiffProvStatus::kNotInvertible,
                        attempted + "; the computation is not invertible");
    }
  }
  return true;
}

bool DiffProv::clear_argmax_blockers(RoundState& state, const Rule& rule,
                                     const std::vector<Tuple>& expected_children,
                                     std::size_t trigger_index,
                                     std::size_t depth) {
  if (!rule.argmax_var) return true;
  // Expected binding's argmax value.
  Bindings expected_bindings;
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    if (!unify_concrete(rule.body[i], expected_children[i],
                        expected_bindings)) {
      return true;  // inconsistent: earlier steps already flagged it
    }
  }
  auto expected_it = expected_bindings.find(*rule.argmax_var);
  if (expected_it == expected_bindings.end()) return true;
  const Value expected_value = expected_it->second;

  // Enumerate candidate bindings in the bad state (as of t_check), with the
  // trigger fixed to the expected trigger tuple.
  const Tuple& trigger = expected_children[trigger_index];
  const NodeName& node = trigger.location();
  struct Candidate {
    Bindings bindings;
    std::vector<Tuple> body;
  };
  std::vector<Candidate> complete;
  Candidate initial;
  initial.body.resize(rule.body.size());
  if (!unify_concrete(rule.body[trigger_index], trigger, initial.bindings)) {
    return true;
  }
  initial.body[trigger_index] = trigger;
  std::vector<Candidate> frontier = {std::move(initial)};
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    if (i == trigger_index) continue;
    std::vector<Candidate> next;
    for (const Candidate& candidate : frontier) {
      state.view->scan_table(
          node, rule.body[i].table, state.t_check, [&](const Tuple& tuple) {
            Candidate extended = candidate;
            if (unify_concrete(rule.body[i], tuple, extended.bindings)) {
              extended.body[i] = tuple;
              next.push_back(std::move(extended));
            }
          });
    }
    frontier = std::move(next);
  }
  for (Candidate& candidate : frontier) {
    bool ok = true;
    try {
      for (const Assignment& assign : rule.assigns) {
        candidate.bindings[assign.var] =
            eval_expr(*assign.expr, candidate.bindings);
      }
      for (const ExprPtr& constraint : rule.constraints) {
        if (!is_truthy(eval_expr(*constraint, candidate.bindings))) {
          ok = false;
          break;
        }
      }
    } catch (const EvalError&) {
      ok = false;
    }
    if (ok) complete.push_back(std::move(candidate));
  }

  // Any candidate strictly beating the expected one blocks the expected
  // derivation (flow-table priority): remove the offending tuples.
  for (const Candidate& candidate : complete) {
    auto it = candidate.bindings.find(*rule.argmax_var);
    if (it == candidate.bindings.end()) continue;
    if (!(expected_value < it->second)) continue;
    for (std::size_t i = 0; i < candidate.body.size(); ++i) {
      if (i == trigger_index || candidate.body[i] == expected_children[i]) {
        continue;
      }
      const Tuple& blocker = candidate.body[i];
      // Skip tuples this diagnosis already removes.
      if (state.seen_ops->count(
              DeltaOp{DeltaOp::Kind::kDelete, blocker, state.t_apply}
                  .to_string()) != 0) {
        continue;
      }
      const TableDecl& decl = program_->table(blocker.table());
      if (decl.kind == TupleKind::kBase) {
        if (decl.mutability == Mutability::kImmutable) {
          return state.fail(DiffProvStatus::kImmutableChange,
                            "the higher-priority tuple " +
                                blocker.to_string() +
                                " blocks the expected derivation but is "
                                "immutable");
        }
        add_deletion(state, blocker,
                     "blocks the expected derivation (higher " +
                         *rule.argmax_var + ")");
        continue;
      }
      // Derived blocker: walk its provenance down to a mutable base tuple.
      const auto exist = state.graph->exist_at(blocker, state.t_check);
      if (!exist) {
        return state.fail(DiffProvStatus::kNotInvertible,
                          "blocking tuple " + blocker.to_string() +
                              " has no recorded provenance");
      }
      // BFS to the first mutable base INSERT.
      std::vector<VertexId> queue = {*exist};
      std::optional<Tuple> base_victim;
      for (std::size_t qi = 0; qi < queue.size() && !base_victim; ++qi) {
        const Vertex& v = state.graph->vertex(queue[qi]);
        if (v.kind == VertexKind::kInsert) {
          const TableDecl& base_decl = program_->table(v.tuple().table());
          if (base_decl.kind == TupleKind::kBase &&
              base_decl.mutability == Mutability::kMutable) {
            base_victim = v.tuple();
          }
          continue;
        }
        for (VertexId child : v.children) queue.push_back(child);
      }
      if (!base_victim) {
        return state.fail(DiffProvStatus::kImmutableChange,
                          "blocking tuple " + blocker.to_string() +
                              " derives only from immutable tuples");
      }
      add_deletion(state, *base_victim,
                   "underives " + blocker.to_string() +
                       ", which blocks the expected derivation");
    }
    (void)depth;
  }
  return true;
}

bool DiffProv::make_appear(RoundState& state, ProvTree::NodeIndex good_derive,
                           const Tuple& expected_head, std::size_t depth) {
  if (depth > config_.max_recursion) {
    return state.fail(DiffProvStatus::kExhausted,
                      "recursion limit reached while making tuples appear");
  }
  if (state.changes->size() > config_.max_changes) {
    return state.fail(DiffProvStatus::kExhausted,
                      "change budget exceeded; the reference event is "
                      "probably too dissimilar");
  }
  const ProvTree& good = *state.good;
  const Vertex& derive_vertex = good.vertex_of(good_derive);
  const Rule* rule = program_->find_rule(derive_vertex.rule());
  if (rule == nullptr) {
    return state.fail(DiffProvStatus::kNotInvertible,
                      "rule " + derive_vertex.rule() +
                          " is not part of the program model");
  }
  const auto& children = good.node(good_derive).children;
  if (rule->agg && children.size() != rule->body.size()) {
    // An aggregate's value folds an unbounded contribution chain; DiffProv
    // cannot re-derive it through MakeAppear (the same boundary the paper
    // draws for aggregation provenance in section 4.9). Divergences below
    // the aggregate -- where the scenarios' root causes live -- are handled
    // before the spine ever reaches this vertex.
    return state.fail(DiffProvStatus::kNotInvertible,
                      "cannot re-derive the aggregate " +
                          derive_vertex.tuple().to_string() +
                          " through MakeAppear; pick a reference whose "
                          "divergence lies below the aggregation");
  }
  if (children.size() != rule->body.size()) {
    return state.fail(DiffProvStatus::kNotInvertible,
                      "malformed derivation of " +
                          derive_vertex.tuple().to_string());
  }

  // Default expected children and head from the taint annotations, mapped
  // through the repairs this diagnosis has already committed to.
  std::vector<Tuple> expected_children;
  expected_children.reserve(children.size());
  for (ProvTree::NodeIndex child : children) {
    auto expected = expected_with_repairs(good, *state.ann, child,
                                          state.seed_b, *state.repairs);
    if (!expected) {
      return state.fail(DiffProvStatus::kNotInvertible,
                        "taint formula failed for " +
                            good.vertex_of(child).tuple().to_string());
    }
    expected_children.push_back(std::move(*expected));
  }
  // The *raw* default head (annotations only, repairs not applied): the
  // override comparison must use it, because a previously recorded repair
  // maps the default onto the override itself, which would mask the need to
  // push required values into the children.
  const auto default_head =
      state.ann->expected_tuple(good_derive, state.seed_b);
  if (!default_head) {
    return state.fail(DiffProvStatus::kNotInvertible,
                      "taint formula failed for head " +
                          derive_vertex.tuple().to_string());
  }

  // If the caller needs a head different from the taint default (downward
  // override), invert the head expressions to required variable values and
  // push them into the expected children (paper section 4.5).
  if (!(expected_head == *default_head)) {
    Bindings default_bindings;
    for (std::size_t i = 0; i < rule->body.size(); ++i) {
      unify_concrete(rule->body[i], expected_children[i], default_bindings);
    }
    const FormulaEnv env = const_env_from(default_bindings);
    std::map<std::string, Value> required;
    for (std::size_t i = 0; i < rule->head.args.size(); ++i) {
      if (expected_head.at(i) == default_head->at(i)) continue;
      const Expr& e = *rule->head.args[i];
      std::vector<std::string> vars;
      e.collect_vars(vars);
      bool solved_field = false;
      for (const std::string& var : vars) {
        auto inv = invert_expr_for_var(
            e, var, Formula::make_const(expected_head.at(i)), env);
        if (!inv) continue;
        try {
          required[var] = (*inv)->eval({});
          solved_field = true;
          break;
        } catch (const EvalError&) {
        }
      }
      if (!solved_field) {
        return state.fail(
            DiffProvStatus::kNotInvertible,
            "cannot invert head computation " + e.to_string() +
                " to make " + expected_head.to_string() +
                " appear; attempted change stops here (diagnostic clue)");
      }
    }
    for (std::size_t i = 0; i < rule->body.size(); ++i) {
      bool adjusted = false;
      const Tuple before = expected_children[i];
      for (std::size_t j = 0; j < rule->body[i].args.size(); ++j) {
        const AtomArg& arg = rule->body[i].args[j];
        if (!arg.is_var) continue;
        auto it = required.find(arg.var);
        if (it != required.end()) {
          expected_children[i] =
              expected_children[i].with_field(j, it->second);
          adjusted = true;
        }
      }
      if (adjusted) {
        record_repair(*state.repairs, before, expected_children[i]);
      }
    }
    record_repair(*state.repairs, *default_head, expected_head);
  }

  // Constraint repair may further adjust expected children; do it before
  // ensuring existence so we do not insert a tuple we then revise.
  if (!repair_constraints(state, *rule, good_derive, expected_children,
                          depth)) {
    return false;
  }

  // Make every missing child appear.
  for (std::size_t i = 0; i < children.size(); ++i) {
    if (!ensure_child(state, children[i], expected_children[i], depth + 1)) {
      return false;
    }
  }

  // Finally, nothing may out-prioritize the expected derivation.
  const std::size_t trigger_index =
      derive_vertex.trigger_index >= 0 &&
              static_cast<std::size_t>(derive_vertex.trigger_index) <
                  children.size()
          ? static_cast<std::size_t>(derive_vertex.trigger_index)
          : 0;
  return clear_argmax_blockers(state, *rule, expected_children, trigger_index,
                               depth);
}

DiffProvResult DiffProv::diagnose(const ProvTree& good_tree,
                                  const Tuple& bad_event,
                                  std::optional<BadRun> initial_run) {
  DiffProvResult result;
  DiagnoseScope diagnose_scope(result);
  result.good_tree_size = good_tree.size();

  // Initial bad execution ("query out the bad tree"), unless the caller
  // already replayed it (batched with the good-tree query, section 6.6).
  auto replay_start = Clock::now();
  BadRun bad_run;
  if (initial_run) {
    bad_run = std::move(*initial_run);
  } else {
    obs::Span replay_span(obs::default_tracer(), "dp.diffprov.replay",
                          "diffprov");
    bad_run = provider_->replay_bad({});
    result.timing.replay_us += elapsed_us(replay_start);
    ++result.timing.replays;
  }

  auto bad_tree_opt = locate_tree(*bad_run.graph, bad_event);
  if (!bad_tree_opt) {
    result.status = DiffProvStatus::kBadEventNotFound;
    result.message =
        "the event of interest " + bad_event.to_string() +
        " does not appear in the (replayed) execution";
    return result;
  }
  ProvTree bad_tree = std::move(*bad_tree_opt);
  result.bad_tree_size = bad_tree.size();

  // Seeds (section 4.2) and comparability (section 4.3).
  auto seed_start = Clock::now();
  obs::Span seed_span(obs::default_tracer(), "dp.diffprov.find_seed",
                      "diffprov");
  const auto good_seed = find_seed(good_tree);
  auto bad_seed = find_seed(bad_tree);
  seed_span.end();
  result.timing.find_seed_us += elapsed_us(seed_start);
  if (!good_seed || !bad_seed) {
    result.status = DiffProvStatus::kSeedTypeMismatch;
    result.message = "could not identify a seed in one of the trees";
    return result;
  }
  if (good_seed->tuple.table() != bad_seed->tuple.table()) {
    result.status = DiffProvStatus::kSeedTypeMismatch;
    result.message = "seeds have different types: reference sprang from " +
                     good_seed->tuple.to_string() +
                     " but the event of interest sprang from " +
                     bad_seed->tuple.to_string() +
                     "; the two are not comparable";
    return result;
  }

  result.bad_seed = bad_seed->tuple;
  result.bad_seed_time = bad_seed->time;

  // Taint annotation of the good tree (section 4.3).
  auto annotate_start = Clock::now();
  obs::Span annotate_span(obs::default_tracer(), "dp.diffprov.annotate",
                          "diffprov");
  const TreeAnnotations annotations =
      TreeAnnotations::annotate(good_tree, *program_, *good_seed);
  annotate_span.end();
  result.timing.annotate_us += elapsed_us(annotate_start);

  Delta delta;
  std::set<std::string> seen_ops;
  RepairMap repairs;
  // "Shortly before first needed" (section 4.8): changes start out applied
  // just before the bad seed; if alignment stalls because the good
  // counterpart was needed *earlier* (e.g. an aggregate's contribution
  // chain reaches back before the seed), the ops are re-applied from the
  // earliest time the good tree used anything, once.
  bool retried_early_apply = false;
  // Earliest DERIVE in the good tree consuming `tuple` -- the moment its
  // counterpart must exist by.
  const auto earliest_use_in_good = [&good_tree](const Tuple& tuple) {
    LogicalTime best = kTimeInfinity;
    good_tree.visit([&](ProvTree::NodeIndex i) {
      const Vertex& v = good_tree.vertex_of(i);
      if (v.kind != VertexKind::kDerive || v.time >= best) return;
      for (const ProvTree::NodeIndex child : good_tree.node(i).children) {
        if (good_tree.vertex_of(child).tuple() == tuple) {
          best = v.time;
          return;
        }
      }
    });
    return best;
  };

  for (int round = 1; round <= config_.max_rounds; ++round) {
    RoundState state;
    state.good = &good_tree;
    state.ann = &annotations;
    state.seed_b = bad_seed->tuple.values();
    state.t_check = bad_seed->time;
    state.t_apply = bad_seed->time - 1;
    state.view = bad_run.state.get();
    state.graph = bad_run.graph.get();
    state.delta = &delta;
    state.changes = &result.changes;
    state.seen_ops = &seen_ops;
    state.repairs = &repairs;

    // First divergence along the spines (section 4.4).
    auto divergence_start = Clock::now();
    obs::Span diff_span(obs::default_tracer(), "dp.diffprov.tree_diff",
                        "diffprov");
    const auto good_spine = spine_of(good_tree, *good_seed);
    const auto bad_spine = spine_of(bad_tree, *bad_seed);
    std::size_t divergence = good_spine.size();
    bool found_divergence = false;
    for (std::size_t i = 0; i < good_spine.size(); ++i) {
      const auto expected = expected_with_repairs(
          good_tree, annotations, good_spine[i], state.seed_b, repairs);
      if (!expected) {
        divergence = i;
        found_divergence = true;
        break;
      }
      if (i >= bad_spine.size()) {
        divergence = i;
        found_divergence = true;
        break;
      }
      const Vertex& bad_vertex = bad_tree.vertex_of(bad_spine[i]);
      if (!(*expected == bad_vertex.tuple()) ||
          good_tree.vertex_of(good_spine[i]).rule() != bad_vertex.rule()) {
        divergence = i;
        found_divergence = true;
        break;
      }
    }
    EquivalenceReport equiv;
    if (!found_divergence) {
      obs::Span equiv_span(obs::default_tracer(), "dp.diffprov.equivalence",
                           "diffprov");
      equiv = trees_equivalent(good_tree, annotations, state.seed_b,
                               repairs, bad_tree);
    }
    diff_span.end();
    result.timing.divergence_us += elapsed_us(divergence_start);

    if (!found_divergence && equiv.equivalent) {
      result.status = DiffProvStatus::kSuccess;
      result.rounds = round - 1;
      result.repairs = repairs;
      result.delta = std::move(delta);
      return result;
    }

    // Make the missing tuples appear (section 4.5). When the spines agree
    // but the trees still differ, sweep the whole spine: sibling subtrees
    // are revisited through each derivation's children.
    auto make_start = Clock::now();
    obs::Span rollback_span(obs::default_tracer(), "dp.diffprov.rollback",
                            "diffprov");
    bool ok = true;
    if (found_divergence && divergence < good_spine.size()) {
      const auto expected =
          expected_with_repairs(good_tree, annotations,
                                good_spine[divergence], state.seed_b,
                                repairs);
      ok = expected.has_value() &&
           make_appear(state, good_spine[divergence], *expected, 0);
      if (!expected) {
        state.fail(DiffProvStatus::kNotInvertible,
                   "taint formulas failed at divergence level " +
                       std::to_string(divergence) + " (good vertex: " +
                       good_tree.vertex_of(good_spine[divergence]).label() +
                       ")");
      }
    } else {
      for (const ProvTree::NodeIndex derive : good_spine) {
        const auto expected = expected_with_repairs(
            good_tree, annotations, derive, state.seed_b, repairs);
        if (!expected || !make_appear(state, derive, *expected, 0)) {
          ok = false;
          break;
        }
        if (state.round_new_ops > 0) break;  // one repair per round
      }
    }
    rollback_span.end();
    result.timing.make_appear_us += elapsed_us(make_start);

    if (!ok && state.fail_status != DiffProvStatus::kSuccess) {
      result.status = state.fail_status;
      result.message = state.fail_message;
      result.rounds = round;
      result.repairs = repairs;
      result.delta = std::move(delta);
      return result;
    }
    if (state.round_new_ops == 0) {
      if (!retried_early_apply && !delta.empty()) {
        // The changes themselves look right but arrived too late on the bad
        // timeline (e.g. an aggregate's contribution chain reaches back
        // before the seed): re-apply each operation just before the moment
        // the reference execution first relied on its counterpart. Deletes
        // ride along with the insert that replaces them.
        retried_early_apply = true;
        LogicalTime pending = bad_seed->time - 1;
        for (auto it = delta.rbegin(); it != delta.rend(); ++it) {
          if (it->kind == DeltaOp::Kind::kInsert) {
            // The counterpart is the default-expected tuple this op's value
            // repairs (identity when no repair was involved).
            Tuple counterpart = it->tuple;
            for (const auto& [raw, repaired] : repairs) {
              if (repaired == it->tuple) {
                counterpart = raw;
                break;
              }
            }
            const LogicalTime use = earliest_use_in_good(counterpart);
            pending = use == kTimeInfinity
                          ? bad_seed->time - 1
                          : std::max<LogicalTime>(0, use - 1);
            pending = std::min(pending, bad_seed->time - 1);
          }
          it->at = pending;
        }
      } else {
        result.status = DiffProvStatus::kNoProgress;
        result.message =
            "no tuple change can advance the alignment (the trees differ in "
            "a way replay cannot reproduce -- possibly a race, section "
            "4.9); " +
            (equiv.mismatch.empty()
                 ? std::string("divergence at spine level ") +
                       std::to_string(divergence)
                 : equiv.mismatch);
        result.rounds = round;
        result.repairs = repairs;
        result.delta = std::move(delta);
        return result;
      }
    } else {
      result.changes_per_round.push_back(state.round_new_ops);
    }
    result.rounds = round;

    // UpdateTree: clone-and-roll-forward by deterministic replay
    // (section 4.6).
    replay_start = Clock::now();
    {
      obs::Span replay_span(obs::default_tracer(), "dp.diffprov.replay",
                            "diffprov");
      bad_run = provider_->replay_bad(delta);
    }
    result.timing.replay_us += elapsed_us(replay_start);
    ++result.timing.replays;

    // Re-root the bad tree: prefer the tuple equivalent to the good root;
    // otherwise follow the trigger chain up from the (preserved) seed.
    const auto expected_root = expected_with_repairs(
        good_tree, annotations, good_tree.root(), state.seed_b, repairs);
    std::optional<ProvTree> new_tree;
    if (expected_root) {
      new_tree = locate_tree(*bad_run.graph, *expected_root);
    }
    if (!new_tree) {
      const ProvenanceGraph& graph = *bad_run.graph;
      auto current = graph.latest_exist_before(bad_seed->tuple,
                                               kTimeInfinity);
      while (current) {
        const auto derivations = graph.derivations_triggered_by(*current);
        if (derivations.empty()) break;
        const VertexId last = derivations.back();
        const Vertex& dv = graph.vertex(last);
        const auto head_exist = graph.latest_exist_before(dv.tuple(), dv.time);
        if (!head_exist) break;
        current = head_exist;
      }
      if (current) new_tree = ProvTree::project(graph, *current);
    }
    if (!new_tree) {
      result.status = DiffProvStatus::kNoProgress;
      result.message = "the seed no longer triggers any derivation after "
                       "applying the changes";
      result.repairs = repairs;
      result.delta = std::move(delta);
      return result;
    }
    bad_tree = std::move(*new_tree);
    bad_seed = find_seed(bad_tree);
    if (!bad_seed) {
      result.status = DiffProvStatus::kNoProgress;
      result.message = "lost the seed while updating the bad tree";
      result.repairs = repairs;
      result.delta = std::move(delta);
      return result;
    }
    result.bad_seed = bad_seed->tuple;
    result.bad_seed_time = bad_seed->time;
  }

  result.status = DiffProvStatus::kExhausted;
  result.message = "round budget exhausted before the trees became "
                   "equivalent";
  result.repairs = repairs;
  result.delta = std::move(delta);
  return result;
}

bool DiffProv::delta_aligns(const ProvTree& good_tree, const Delta& delta,
                            const RepairMap& repairs, const Tuple& bad_seed) {
  const auto good_seed = find_seed(good_tree);
  if (!good_seed) return false;
  const TreeAnnotations annotations =
      TreeAnnotations::annotate(good_tree, *program_, *good_seed);
  const std::vector<Value>& seed_b = bad_seed.values();

  const BadRun run = provider_->replay_bad(delta);
  const auto expected_root = expected_with_repairs(
      good_tree, annotations, good_tree.root(), seed_b, repairs);
  if (!expected_root) return false;
  const auto tree = locate_tree(*run.graph, *expected_root);
  if (!tree) return false;
  return trees_equivalent(good_tree, annotations, seed_b, repairs, *tree)
      .equivalent;
}

DiffProvResult DiffProv::minimize_delta(const ProvTree& good_tree,
                                        const DiffProvResult& result) {
  if (!result.ok() || !result.bad_seed || result.changes.size() <= 1) {
    return result;  // nothing to minimize
  }
  // Greedily try dropping each change (latest first: later rounds repair
  // consequences of earlier ones, so later changes are more likely
  // redundant once... in practice either may be).
  std::vector<bool> kept(result.changes.size(), true);
  auto build_delta = [&](const std::vector<bool>& mask) {
    Delta delta;
    std::set<std::size_t> dropped_ops;
    for (std::size_t c = 0; c < mask.size(); ++c) {
      if (mask[c]) continue;
      for (std::size_t op : result.changes[c].op_indices) {
        dropped_ops.insert(op);
      }
    }
    for (std::size_t i = 0; i < result.delta.size(); ++i) {
      if (dropped_ops.count(i) == 0) delta.push_back(result.delta[i]);
    }
    return delta;
  };
  for (std::size_t c = result.changes.size(); c-- > 0;) {
    std::vector<bool> trial = kept;
    trial[c] = false;
    if (delta_aligns(good_tree, build_delta(trial), result.repairs,
                     *result.bad_seed)) {
      kept = std::move(trial);
    }
  }

  DiffProvResult minimized = result;
  minimized.delta = build_delta(kept);
  minimized.changes.clear();
  for (std::size_t c = 0; c < kept.size(); ++c) {
    if (kept[c]) minimized.changes.push_back(result.changes[c]);
  }
  if (minimized.changes.size() != result.changes.size()) {
    minimized.message = "minimized from " +
                        std::to_string(result.changes.size()) + " to " +
                        std::to_string(minimized.changes.size()) +
                        " change(s)";
    // Op indices are stale after rebuilding the delta; clear them.
    for (ChangeRecord& change : minimized.changes) {
      change.op_indices.clear();
    }
  }
  return minimized;
}

}  // namespace dp
