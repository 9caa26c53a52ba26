#include "ndlog/program.h"

#include <algorithm>
#include <set>

namespace dp {

void Program::declare(TableDecl decl) {
  if (tables_.count(decl.name) != 0) {
    throw ProgramError("table redeclared: " + decl.name);
  }
  if (decl.arity == 0) {
    throw ProgramError("table must have at least the location field: " +
                       decl.name);
  }
  for (std::size_t col : decl.key_columns) {
    if (col >= decl.arity) {
      throw ProgramError("key column out of range in table " + decl.name);
    }
  }
  decl.ordinal = tables_.size();
  tables_.emplace(decl.name, std::move(decl));
}

void Program::add_rule(Rule rule) { rules_.push_back(std::move(rule)); }

const TableDecl* Program::find_table(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const TableDecl& Program::table(const std::string& name) const {
  const TableDecl* decl = find_table(name);
  if (decl == nullptr) throw ProgramError("unknown table: " + name);
  return *decl;
}

const Rule* Program::find_rule(const std::string& name) const {
  for (const Rule& rule : rules_) {
    if (rule.name == name) return &rule;
  }
  return nullptr;
}

std::vector<std::size_t> Program::rules_listening_to(
    const std::string& table) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    for (const BodyAtom& atom : rules_[i].body) {
      if (atom.table == table) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

std::vector<Program::BodyOccurrence> Program::body_occurrences_of(
    const std::string& table) const {
  std::vector<BodyOccurrence> out;
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    for (std::size_t j = 0; j < rules_[i].body.size(); ++j) {
      if (rules_[i].body[j].table == table) out.push_back({i, j});
    }
  }
  return out;
}

void Program::validate() const {
  std::set<std::string> rule_names;
  for (const Rule& rule : rules_) {
    if (!rule_names.insert(rule.name).second) {
      throw ProgramError("duplicate rule name: " + rule.name);
    }
    validate_rule(rule);
  }
}

void Program::validate_rule(const Rule& rule) const {
  auto fail = [&rule](const std::string& message) {
    throw ProgramError("rule " + rule.name + ": " + message);
  };

  if (rule.body.empty()) fail("empty body");

  // Head table must be declared, derived, and arity-consistent.
  const TableDecl* head_decl = find_table(rule.head.table);
  if (head_decl == nullptr) fail("undeclared head table " + rule.head.table);
  if (head_decl->kind != TupleKind::kDerived) {
    fail("head table " + rule.head.table + " is not declared derived");
  }
  if (rule.head.args.size() != head_decl->arity) {
    fail("head arity mismatch for " + rule.head.table);
  }

  // Body atoms: declared, arity-consistent, and localized.
  std::set<std::string> bound;
  std::string location_var;
  for (const BodyAtom& atom : rule.body) {
    const TableDecl* decl = find_table(atom.table);
    if (decl == nullptr) fail("undeclared body table " + atom.table);
    if (atom.args.size() != decl->arity) {
      fail("body arity mismatch for " + atom.table);
    }
    const AtomArg& loc = atom.args.front();
    if (loc.is_var) {
      if (location_var.empty()) {
        location_var = loc.var;
      } else if (location_var != loc.var) {
        fail("not localized: body atoms at @" + location_var + " and @" +
             loc.var);
      }
    } else if (!loc.constant.is_string()) {
      fail("location constant must be a string node name");
    }
    for (const AtomArg& arg : atom.args) {
      if (arg.is_var) bound.insert(arg.var);
    }
  }

  // Assignments bind new variables; their inputs must already be bound.
  auto check_bound = [&](const ExprPtr& expr, const char* where) {
    std::vector<std::string> vars;
    expr->collect_vars(vars);
    for (const std::string& v : vars) {
      if (bound.count(v) == 0) {
        fail(std::string("unbound variable ") + v + " in " + where);
      }
    }
  };
  for (const Assignment& assign : rule.assigns) {
    check_bound(assign.expr, "assignment");
    bound.insert(assign.var);
  }
  for (const ExprPtr& constraint : rule.constraints) {
    check_bound(constraint, "constraint");
  }
  if (rule.agg) {
    if (bound.count(rule.agg->var) != 0) {
      fail("aggregate variable " + rule.agg->var +
           " must not be bound in the body");
    }
    bound.insert(rule.agg->var);  // the engine supplies its value
  }
  for (const ExprPtr& arg : rule.head.args) {
    check_bound(arg, "head");
  }
  if (rule.argmax_var && bound.count(*rule.argmax_var) == 0) {
    fail("argmax variable " + *rule.argmax_var + " is unbound");
  }

  if (rule.agg) {
    const AggSpec& agg = *rule.agg;
    // The aggregate variable must appear exactly once, directly, in the head.
    std::size_t found = rule.head.args.size();
    for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
      std::vector<std::string> vars;
      rule.head.args[i]->collect_vars(vars);
      const bool mentions =
          std::find(vars.begin(), vars.end(), agg.var) != vars.end();
      if (!mentions) continue;
      if (rule.head.args[i]->kind != Expr::Kind::kVar ||
          found != rule.head.args.size()) {
        fail("aggregate variable " + agg.var +
             " must appear exactly once as a plain head argument");
      }
      found = i;
    }
    if (found == rule.head.args.size()) {
      fail("aggregate variable " + agg.var + " does not appear in the head");
    }
    // Mutating the const rule's resolved index is done by the engine via a
    // fresh lookup; validation just confirms the structure here.
    if (agg.kind == AggSpec::Kind::kSum && bound.count(agg.sum_var) == 0) {
      fail("summed variable " + agg.sum_var + " is unbound");
    }
    // The head table's keys must identify the group: declared, and not
    // covering the aggregate column (so each new value displaces the old).
    if (head_decl->key_columns.empty()) {
      fail("aggregate head table " + rule.head.table +
           " needs declared keys (the group)");
    }
    for (std::size_t col : head_decl->key_columns) {
      if (col == found) {
        fail("aggregate column of " + rule.head.table +
             " must not be part of its keys");
      }
    }
    if (head_decl->is_event()) {
      fail("aggregate head table " + rule.head.table + " cannot be an event");
    }
  }
}

std::string Program::to_string() const {
  std::string out;
  for (const auto& [name, decl] : tables_) {
    out += "table " + name + "(" + std::to_string(decl.arity) + ")";
    if (!decl.key_columns.empty()) {
      out += " keys(";
      for (std::size_t i = 0; i < decl.key_columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += std::to_string(decl.key_columns[i]);
      }
      out += ")";
    }
    out += decl.kind == TupleKind::kBase ? " base" : " derived";
    if (decl.kind == TupleKind::kBase) {
      out += decl.mutability == Mutability::kMutable ? " mutable"
                                                     : " immutable";
    }
    if (decl.is_event()) out += " event";
    out += ".\n";
  }
  for (const Rule& rule : rules_) {
    out += rule.to_string() + "\n";
  }
  return out;
}

}  // namespace dp
