#include "runtime/engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace dp {

namespace {

/// Span + latency sample for one rule firing. Inert -- two relaxed loads and
/// branches -- unless the firing is actually traced; safe across the fire
/// functions' many early returns (RAII).
class FiringScope {
 public:
  FiringScope(std::string_view label, obs::QuantileSketch* sketch)
      : span_(obs::default_tracer(), label, "rule") {
    if (span_.active()) {
      sketch_ = sketch;
      start_us_ = obs::monotonic_micros();
    }
  }
  ~FiringScope() {
    if (sketch_ != nullptr) {
      sketch_->observe(double(obs::monotonic_micros() - start_us_));
    }
  }
  FiringScope(const FiringScope&) = delete;
  FiringScope& operator=(const FiringScope&) = delete;

 private:
  obs::Span span_;
  obs::QuantileSketch* sketch_ = nullptr;
  std::uint64_t start_us_ = 0;
};

}  // namespace

Engine::Engine(Program program, EngineConfig config)
    : program_(std::move(program)), config_(config) {
  program_.validate();
  for (const auto& [name, decl] : program_.tables()) {
    listeners_.emplace(name, program_.rules_listening_to(name));
  }
  if (config_.use_join_plans) plans_ = compile_rule_plans(program_);

  attach_registry();
  const auto& rules = program_.rules();
  rule_firings_.assign(rules.size(), 0);
  rule_firings_published_.assign(rules.size(), 0);
  rule_facts_.reserve(rules.size());
  rule_span_labels_.reserve(rules.size());
  rule_metric_names_.reserve(rules.size());
  for (const Rule& rule : rules) {
    RuleFacts facts;
    facts.name = intern_name(rule.name);
    for (const BodyAtom& atom : rule.body) {
      if (program_.table(atom.table).is_event()) facts.event_body = true;
    }
    rule_facts_.push_back(facts);
    // Interned once per process: the recorder's scope stack borrows the
    // label's bytes, and a sampler may read them after this engine is gone.
    rule_span_labels_.push_back(resolve_name(intern_name("rule:" + rule.name)));
    rule_metric_names_.push_back("dp.runtime.rule_firings." +
                                 obs::sanitize_metric_segment(rule.name));
  }
  static constexpr const char* kActionNames[kTableActions] = {
      "inserts", "deletes", "derives", "underives"};
  table_metric_names_.resize(program_.tables().size() * kTableActions);
  for (const auto& [name, decl] : program_.tables()) {
    for (std::size_t action = 0; action < kTableActions; ++action) {
      table_metric_names_[decl.ordinal * kTableActions + action] =
          "dp.runtime.table." + obs::sanitize_metric_segment(name) + "." +
          kActionNames[action];
    }
  }
  table_counts_.assign(table_metric_names_.size(), 0);
  table_counts_published_.assign(table_metric_names_.size(), 0);
}

// The *_published_ baselines start at the copied counts, so the fork's
// registry sees only the events the fork processes itself.
Engine::Engine(const Engine& other)
    : program_(other.program_),
      config_(other.config_),
      rule_facts_(other.rule_facts_),
      listeners_(other.listeners_),
      plans_(other.plans_),
      state_(other.state_),
      links_(other.links_),
      queue_(other.queue_),
      events_(other.events_),
      free_slots_(other.free_slots_),
      next_seq_(other.next_seq_),
      next_external_seq_(other.next_external_seq_),
      now_(other.now_),
      records_(other.records_),
      records_by_body_(other.records_by_body_),
      records_by_head_(other.records_by_head_),
      support_(other.support_),
      stats_(other.stats_),
      published_(other.stats_),
      rule_firings_(other.rule_firings_),
      rule_firings_published_(other.rule_firings_),
      table_counts_(other.table_counts_),
      table_counts_published_(other.table_counts_),
      table_metric_names_(other.table_metric_names_),
      remote_by_node_(other.remote_by_node_),
      remote_by_node_published_(other.remote_by_node_),
      rule_span_labels_(other.rule_span_labels_),
      rule_metric_names_(other.rule_metric_names_),
      queue_depth_max_(other.queue_depth_max_) {
  attach_registry();
}

std::unique_ptr<Engine> Engine::fork() const {
  DP_SPAN_CAT("dp.runtime.fork", "runtime");
  return std::unique_ptr<Engine>(new Engine(*this));
}

void Engine::attach_registry() {
  metrics_ = config_.metrics;
  if (metrics_ == nullptr) {
    own_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = own_metrics_.get();
  }
  fire_sketch_ = &metrics_->sketch("dp.runtime.rule_fire_us");
}

void Engine::add_link(const NodeName& a, const NodeName& b,
                      LogicalTime delay) {
  links_[{a, b}] = delay;
  links_[{b, a}] = delay;
}

void Engine::add_observer(RuntimeObserver* observer) {
  observers_.push_back(observer);
}

LogicalTime Engine::delivery_delay(const NodeName& from,
                                   const NodeName& to) const {
  if (from == to) return kDeriveDelay;
  auto it = links_.find({from, to});
  return it == links_.end() ? kDefaultLinkDelay : it->second;
}

Table& Engine::table_for(const Tuple& tuple) {
  auto& node_tables = state_[tuple.location()];
  auto it = node_tables.find(tuple.table());
  if (it == node_tables.end()) {
    it = node_tables.emplace(tuple.table(), Table(program_.table(tuple.table())))
             .first;
  }
  return it->second;
}

const Table* Engine::find_table(const NodeName& node,
                                const std::string& table) const {
  auto node_it = state_.find(node);
  if (node_it == state_.end()) return nullptr;
  auto it = node_it->second.find(table);
  return it == node_it->second.end() ? nullptr : &it->second;
}

bool Engine::is_live(const Tuple& tuple) const {
  const Table* table = find_table(tuple.location(), tuple.table());
  return table != nullptr && table->is_live(tuple);
}

bool Engine::existed_at(const Tuple& tuple, LogicalTime at) const {
  const Table* table = find_table(tuple.location(), tuple.table());
  return table != nullptr && table->existed_at(tuple, at);
}

std::vector<Tuple> Engine::live_tuples(const std::string& table) const {
  std::vector<Tuple> out;
  for (const auto& [node, tables] : state_) {
    auto it = tables.find(table);
    if (it == tables.end()) continue;
    it->second.for_each_live(
        [&out](const Table::Row& row) { out.push_back(row.tuple); });
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<NodeName> Engine::nodes() const {
  std::vector<NodeName> out;
  out.reserve(state_.size());
  for (const auto& [node, tables] : state_) out.push_back(node);
  return out;
}

void Engine::push_event(Event event) {
  enqueue(std::move(event), kInternalSeqBand | next_seq_++);
}

void Engine::push_external_event(Event event) {
  enqueue(std::move(event), next_external_seq_++);
}

void Engine::enqueue(Event event, std::uint64_t seq) {
  const LogicalTime time = event.time;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(events_.size());
    events_.push_back(std::move(event));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    events_[slot] = std::move(event);
  }
  queue_.push_back(QueueKey{time, seq, slot});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
  if (queue_.size() > queue_depth_max_) queue_depth_max_ = queue_.size();
}

Engine::Event Engine::pop_event() {
  assert(!queue_.empty());
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  const std::uint32_t slot = queue_.back().slot;
  queue_.pop_back();
  Event event = std::move(events_[slot]);
  free_slots_.push_back(slot);
  return event;
}

void Engine::schedule_insert(Tuple tuple, LogicalTime at) {
  const TableDecl& decl = program_.table(tuple.table());
  if (decl.kind != TupleKind::kBase) {
    throw ProgramError("external insert into derived table " + tuple.table());
  }
  if (tuple.arity() != decl.arity) {
    throw ProgramError("arity mismatch inserting into " + tuple.table());
  }
  if (!tuple.values().front().is_string()) {
    throw ProgramError("tuple location (field 0) must be a node name string");
  }
  if (at < now_) throw ProgramError("insert scheduled in the past");
  Event event;
  event.time = at;
  event.kind = Event::Kind::kBaseInsert;
  event.tuple = std::move(tuple);
  push_external_event(std::move(event));
}

void Engine::schedule_delete(Tuple tuple, LogicalTime at) {
  const TableDecl& decl = program_.table(tuple.table());
  if (decl.kind != TupleKind::kBase) {
    throw ProgramError("external delete from derived table " + tuple.table());
  }
  if (decl.is_event()) {
    throw ProgramError("cannot delete event tuple " + tuple.table());
  }
  if (at < now_) throw ProgramError("delete scheduled in the past");
  Event event;
  event.time = at;
  event.kind = Event::Kind::kBaseDelete;
  event.tuple = std::move(tuple);
  push_external_event(std::move(event));
}

void Engine::run(const std::vector<Tuple>& horizon, const RunPauses& pauses) {
  DP_SPAN_CAT("dp.runtime.run", "runtime");
  awaited_.clear();
  for (const Tuple& tuple : horizon) {
    awaited_.push_back({tuple, global_store().find(tuple)});
  }
  const bool bounded = !horizon.empty();
  // Without pauses this stays out of reach: one integer compare per event.
  std::uint64_t next_pause = pauses.every == 0
                                 ? std::numeric_limits<std::uint64_t>::max()
                                 : stats_.events_processed + pauses.every;
  while (!queue_.empty()) {
    // Every named tuple has appeared (by now_) and the events at now_ are
    // drained: what follows is later than anything the query reads.
    if (bounded && awaited_.empty() && queue_.front().time > now_) break;
    if (stats_.events_processed >= next_pause &&
        queue_.front().time > now_) {
      pauses.at();
      next_pause = stats_.events_processed + pauses.every;
    }
    process(pop_event());
  }
  awaited_.clear();
  publish_metrics();
}

void Engine::run_until(LogicalTime until) {
  DP_SPAN_CAT("dp.runtime.run_until", "runtime");
  while (!queue_.empty() && queue_.front().time <= until) {
    process(pop_event());
  }
  now_ = std::max(now_, until);
  publish_metrics();
}

void Engine::process(const Event& event) {
  assert(event.time >= now_);
  now_ = event.time;
  ++stats_.events_processed;
  if (config_.max_events != 0 && stats_.events_processed > config_.max_events) {
    throw ProgramError(
        "event budget exceeded (" + std::to_string(config_.max_events) +
        "): the program is probably deriving forever (e.g. a forwarding "
        "loop); raise EngineConfig::max_events if the workload is genuinely "
        "this large");
  }
  switch (event.kind) {
    case Event::Kind::kBaseInsert:
    case Event::Kind::kDerivedInsert:
      process_insert(event);
      break;
    case Event::Kind::kAggregate:
      process_aggregate(event);
      break;
    case Event::Kind::kBaseDelete:
      process_delete(event.tuple, event.time);
      break;
  }
}

void Engine::note_appearance(const Tuple& tuple, TupleRef ref) {
  std::erase_if(awaited_, [&](const Awaited& awaited) {
    return awaited.ref != kNoTupleRef ? awaited.ref == ref
                                      : awaited.tuple == tuple;
  });
}

void Engine::process_aggregate(const Event& event) {
  const Rule& rule = program_.rules()[event.rule];
  if (!rule.agg) return;  // defensive: validated upstream
  // Resolve the aggregate column (the head argument that is the agg var).
  std::size_t agg_index = event.tuple.arity();
  for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
    if (rule.head.args[i]->kind == Expr::Kind::kVar &&
        rule.head.args[i]->var == rule.agg->var) {
      agg_index = i;
      break;
    }
  }
  if (agg_index == event.tuple.arity()) return;

  Table& table = table_for(event.tuple);
  const Table::Row* previous = table.live_by_key(table.key_of(event.tuple));
  const std::int64_t old_value =
      previous != nullptr && previous->tuple.at(agg_index).is_int()
          ? previous->tuple.at(agg_index).as_int()
          : 0;

  Event resolved;
  resolved.time = event.time;
  resolved.kind = Event::Kind::kDerivedInsert;
  resolved.rule = event.rule;
  resolved.trigger_index = event.trigger_index;
  resolved.body = event.body;
  // The previous aggregate value joins the provenance as the tail of the
  // contribution chain.
  if (previous != nullptr) resolved.body.push_back(previous->ref);
  resolved.tuple =
      event.tuple.with_field(agg_index, Value(old_value + event.agg_delta));
  process_insert(resolved);
}

void Engine::process_insert(const Event& event) {
  const Tuple& tuple = event.tuple;
  const TableDecl& decl = program_.table(tuple.table());
  const bool is_base = event.kind == Event::Kind::kBaseInsert;
  const bool is_event = decl.is_event();
  // The event's one store probe. The row, every observer (recorder, event
  // log), the support maps and the bodies of the firings this tuple
  // triggers all share the ref.
  const TupleRef ref = intern_tuple(tuple);
  if (!awaited_.empty()) note_appearance(tuple, ref);

  bool newly_appeared = true;
  if (!is_event) {
    Table& table = table_for(tuple);
    const Table::InsertResult result = table.insert(tuple, event.time, ref);
    if (result.displaced) {
      // Key upsert displaced a live row: observers see its disappearance
      // first, and its dependents are underived at the same timestamp.
      ++stats_.base_deletes;
      count(decl, kDeletes);
      const TupleRef displaced_ref = result.displaced->ref;
      for (RuntimeObserver* obs : observers_) {
        obs->on_base_delete(displaced_ref, event.time);
      }
      retract_dependents_of(displaced_ref, event.time);
    }
    newly_appeared = result.inserted;
  }

  // Notify observers and maintain support bookkeeping.
  if (is_base) {
    ++stats_.base_inserts;
    count(decl, kInserts);
    for (RuntimeObserver* obs : observers_) {
      obs->on_base_insert(ref, event.time, is_event);
    }
  } else {
    ++stats_.derivations;
    count(decl, kDerives);
    const RuleFacts& rule = rule_facts_[event.rule];
    for (RuntimeObserver* obs : observers_) {
      obs->on_derive(ref, rule.name, event.body, event.trigger_index,
                     event.time, is_event);
    }
    // Derivations triggered by an event tuple are one-shot: the event is
    // gone the instant after, so the head is a fact about something that
    // happened (e.g. "this packet was delivered") and is not subject to
    // incremental view maintenance. Only derivations whose entire body is
    // materialized state participate in support counting.
    if (!is_event && !rule.event_body) {
      const std::size_t record_id = records_.size();
      records_.push_back(DerivRecord{ref, rule.name, true});
      records_by_head_[ref].push_back(record_id);
      for (const TupleRef b : event.body) {
        records_by_body_[b].push_back(record_id);
      }
      ++support_[ref];
    }
  }

  if (!newly_appeared && !is_event) return;  // no new appearance: no firing

  // Delta evaluation: the new tuple may trigger any rule with a body atom
  // over its table. Plans fire in (rule, atom) order -- the exact order of
  // the reference evaluator's nested loop below.
  if (config_.use_join_plans) {
    if (auto it = plans_.find(tuple.table()); it != plans_.end()) {
      for (const RulePlan& plan : it->second) {
        fire_rule_planned(plan, tuple, ref, event.time);
      }
    }
    return;
  }
  for (std::size_t rule_index : listeners_.at(tuple.table())) {
    const Rule& rule = program_.rules()[rule_index];
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (rule.body[i].table == tuple.table()) {
        fire_rule(rule, i, tuple, ref, event.time);
      }
    }
  }
}

void Engine::process_delete(const Tuple& tuple, LogicalTime t) {
  Table& table = table_for(tuple);
  const std::optional<TupleRef> ref = table.remove(tuple, t);
  if (!ref) {
    DP_WARN << "external delete of non-live tuple " << tuple.to_string();
    return;
  }
  ++stats_.base_deletes;
  count(table.decl(), kDeletes);
  for (RuntimeObserver* obs : observers_) {
    obs->on_base_delete(*ref, t);
  }
  retract_dependents_of(*ref, t);
}

void Engine::retract_dependents_of(TupleRef tuple, LogicalTime t) {
  // Deactivate this tuple's own derivation records (it is gone). Its support
  // entry is erased outright -- leaving a zero behind would grow the map by
  // one dead entry per underived tuple for the lifetime of the engine.
  if (auto it = records_by_head_.find(tuple); it != records_by_head_.end()) {
    for (std::size_t id : it->second) records_[id].active = false;
    support_.erase(tuple);
  }
  // Derivations that consumed the tuple lose one unit of support.
  auto it = records_by_body_.find(tuple);
  if (it == records_by_body_.end()) return;
  // Copy: retraction can recurse and grow/invalidate the map.
  const std::vector<std::size_t> record_ids = it->second;
  for (std::size_t id : record_ids) {
    DerivRecord& record = records_[id];
    if (!record.active) continue;
    record.active = false;
    auto support_it = support_.find(record.head);
    if (support_it == support_.end() || support_it->second <= 0) continue;
    if (--support_it->second > 0) continue;
    support_.erase(support_it);
    // Support exhausted: underive the head now (same timestamp).
    const Tuple& head = resolve_tuple(record.head);
    Table& head_table = table_for(head);
    if (!head_table.remove(head, t)) continue;
    ++stats_.underivations;
    count(head_table.decl(), kUnderives);
    for (RuntimeObserver* obs : observers_) {
      obs->on_underive(record.head, record.rule, tuple, t);
    }
    retract_dependents_of(record.head, t);
  }
}

bool Engine::unify(const BodyAtom& atom, const Tuple& tuple,
                   Bindings& bindings) {
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    const AtomArg& arg = atom.args[i];
    const Value& v = tuple.at(i);
    if (arg.is_var) {
      auto [it, inserted] = bindings.emplace(arg.var, v);
      if (!inserted && !(it->second == v)) return false;
    } else if (!(arg.constant == v)) {
      return false;
    }
  }
  return true;
}

void Engine::fire_rule(const Rule& rule, std::size_t atom_index,
                       const Tuple& arrival, TupleRef arrival_ref,
                       LogicalTime t) {
  const std::size_t rule_index =
      static_cast<std::size_t>(&rule - program_.rules().data());
  FiringScope firing_scope(rule_span_labels_[rule_index], fire_sketch_);
  const NodeName& node = arrival.location();

  // Depth-first join over the remaining body atoms, in body order. A frame
  // carries the refs of the rows chosen so far, in body order.
  struct Frame {
    std::size_t atom = 0;
    Bindings bindings;
    std::vector<TupleRef> body;
  };
  std::vector<Frame> complete;
  Frame initial{0, {}, std::vector<TupleRef>(rule.body.size(), kNoTupleRef)};
  if (!unify(rule.body[atom_index], arrival, initial.bindings)) return;
  initial.body[atom_index] = arrival_ref;

  std::vector<Frame> stack;
  stack.push_back(std::move(initial));
  std::vector<std::pair<std::string, Value>> new_bindings;
  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    // Skip the already-bound trigger atom.
    while (frame.atom == atom_index) ++frame.atom;
    if (frame.atom >= rule.body.size()) {
      complete.push_back(std::move(frame));
      continue;
    }
    const BodyAtom& atom = rule.body[frame.atom];
    const Table* table = find_table(node, atom.table);
    if (table == nullptr) continue;
    table->for_each_live([&](const Table::Row& row) {
      const Tuple& candidate = row.tuple;
      // Two-phase unification: validate against the current bindings and
      // collect the new variable bindings *before* paying for a map copy.
      // With selective rules (e.g. constant join keys) almost every
      // candidate fails cheaply here.
      ++stats_.tuples_scanned;
      new_bindings.clear();
      bool ok = true;
      for (std::size_t i = 0; ok && i < atom.args.size(); ++i) {
        const AtomArg& arg = atom.args[i];
        const Value& v = candidate.at(i);
        if (!arg.is_var) {
          ok = arg.constant == v;
          continue;
        }
        auto bound = frame.bindings.find(arg.var);
        if (bound != frame.bindings.end()) {
          ok = bound->second == v;
          continue;
        }
        for (const auto& [var, value] : new_bindings) {
          if (var == arg.var) {
            ok = value == v;
            break;
          }
        }
        if (ok) new_bindings.emplace_back(arg.var, v);
      }
      if (!ok) return;
      ++stats_.tuples_matched;
      Bindings extended = frame.bindings;
      for (auto& [var, value] : new_bindings) {
        extended.emplace(std::move(var), std::move(value));
      }
      std::vector<TupleRef> body = frame.body;
      body[frame.atom] = row.ref;
      stack.push_back({frame.atom + 1, std::move(extended), std::move(body)});
    });
  }
  if (complete.empty()) return;

  // Assignments and constraints.
  std::vector<Frame> satisfying;
  for (Frame& match : complete) {
    Bindings& bindings = match.bindings;
    bool ok = true;
    try {
      for (const Assignment& assign : rule.assigns) {
        bindings[assign.var] = eval_expr(*assign.expr, bindings);
      }
      for (const ExprPtr& constraint : rule.constraints) {
        if (!is_truthy(eval_expr(*constraint, bindings))) {
          ok = false;
          break;
        }
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": constraint error: " << e.what();
      ok = false;
    }
    if (ok) satisfying.push_back(std::move(match));
  }
  if (satisfying.empty()) return;

  // argmax selection (OpenFlow priority semantics): keep only the binding
  // maximizing the declared variable; deterministic tie-break by binding
  // content.
  if (rule.argmax_var) {
    const Frame* best = nullptr;
    for (const Frame& match : satisfying) {
      if (best == nullptr) {
        best = &match;
        continue;
      }
      const Value& current = match.bindings.at(*rule.argmax_var);
      const Value& best_value = best->bindings.at(*rule.argmax_var);
      if (best_value < current ||
          (!(current < best_value) && match.bindings < best->bindings)) {
        best = &match;
      }
    }
    std::vector<Frame> winner = {*best};
    satisfying = std::move(winner);
  }

  // Fire: evaluate the head and schedule its arrival. For aggregate rules
  // the aggregate column gets a placeholder; the value is resolved when the
  // event is processed (serialized, so contributions never race).
  for (const Frame& match : satisfying) {
    const Bindings& bindings = match.bindings;
    std::vector<Value> head_values;
    head_values.reserve(rule.head.args.size());
    try {
      for (const ExprPtr& arg : rule.head.args) {
        if (rule.agg && arg->kind == Expr::Kind::kVar &&
            arg->var == rule.agg->var) {
          head_values.emplace_back(std::int64_t{0});  // placeholder
          continue;
        }
        head_values.push_back(eval_expr(*arg, bindings));
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": head error: " << e.what();
      continue;
    }
    if (!head_values.front().is_string()) {
      DP_WARN << "rule " << rule.name << ": head location is not a node name";
      continue;
    }
    Tuple head(rule.head.table, std::move(head_values));
    const NodeName& target = head.location();
    if (target != node) {
      ++stats_.remote_messages;
      ++remote_by_node_[target];
    }
    ++rule_firings_[rule_index];

    Event event;
    event.time = t + delivery_delay(node, target);
    event.kind = rule.agg ? Event::Kind::kAggregate
                          : Event::Kind::kDerivedInsert;
    if (rule.agg) {
      event.agg_delta =
          rule.agg->kind == AggSpec::Kind::kCount
              ? 1
              : bindings.at(rule.agg->sum_var).as_int();
    }
    event.rule = static_cast<std::uint32_t>(rule_index);
    event.trigger_index = static_cast<std::uint32_t>(atom_index);
    event.body = match.body;
    event.tuple = std::move(head);
    push_event(std::move(event));
  }
}

void Engine::fire_rule_planned(const RulePlan& plan, const Tuple& arrival,
                               TupleRef arrival_ref, LogicalTime t) {
  const Rule& rule = program_.rules()[plan.rule_index];
  FiringScope firing_scope(rule_span_labels_[plan.rule_index], fire_sketch_);
  const NodeName& node = arrival.location();

  // Unify the arriving tuple against the trigger atom.
  Regs regs(plan.slot_count);
  for (const ColOp& op : plan.trigger_ops) {
    const Value& v = arrival.at(op.col);
    switch (op.kind) {
      case ColOp::Kind::kConst:
        if (!(op.constant == v)) return;
        break;
      case ColOp::Kind::kCheck:
        if (!(regs[op.slot] == v)) return;
        break;
      case ColOp::Kind::kBind:
        regs[op.slot] = v;
        break;
    }
  }

  // Depth-first join over the planned steps. Registers are written exactly
  // once per root-to-leaf path before any read (static binding discipline),
  // so backtracking needs no save/restore; complete matches snapshot the
  // register file and the chosen row (tuple and ref) per original body atom.
  struct Chosen {
    const Tuple* tuple = nullptr;
    TupleRef ref = kNoTupleRef;
  };
  struct Match {
    Regs regs;
    std::vector<Chosen> chosen;
  };
  std::vector<Match> matches;
  std::vector<Chosen> chosen(rule.body.size());
  chosen[plan.trigger_atom] = {&arrival, arrival_ref};

  auto descend = [&](auto&& self, std::size_t depth) -> void {
    if (depth == plan.steps.size()) {
      matches.push_back(Match{regs, chosen});
      return;
    }
    const JoinStep& step = plan.steps[depth];
    const Table* table = find_table(node, step.table);
    if (table == nullptr) return;
    const auto try_candidate = [&](const Table::Row& candidate,
                                   const std::vector<ColOp>& ops) {
      ++stats_.tuples_scanned;
      for (const ColOp& op : ops) {
        const Value& v = candidate.tuple.at(op.col);
        switch (op.kind) {
          case ColOp::Kind::kConst:
            if (!(op.constant == v)) return;
            break;
          case ColOp::Kind::kCheck:
            if (!(regs[op.slot] == v)) return;
            break;
          case ColOp::Kind::kBind:
            regs[op.slot] = v;
            break;
        }
      }
      ++stats_.tuples_matched;
      chosen[step.body_index] = {&candidate.tuple, candidate.ref};
      self(self, depth + 1);
    };
    if (step.probe_cols.empty()) {
      // Nothing bound: full scan (rare -- a cross join).
      table->for_each_live([&](const Table::Row& candidate) {
        try_candidate(candidate, step.ops);
      });
      return;
    }
    // Indexed probe: build the key from constants and bound registers, then
    // enumerate only the matching bucket. Residual ops cover the columns the
    // key does not pin (fresh variables, intra-atom repeats).
    std::vector<Value> probe_key;
    probe_key.reserve(plan.steps[depth].probe.size());
    for (const ColOp& op : step.probe) {
      probe_key.push_back(op.kind == ColOp::Kind::kConst ? op.constant
                                                         : regs[op.slot]);
    }
    ++stats_.index_probes;
    table->for_each_live_matching(step.probe_cols, probe_key,
                                  [&](const Table::Row& candidate) {
                                    try_candidate(candidate, step.residual);
                                  });
  };
  descend(descend, 0);
  if (matches.empty()) return;

  // Restore the reference evaluator's enumeration order. The reference DFS
  // (fire_rule) expands body atoms in body order and pops candidates from a
  // stack, which yields matches in reverse-lexicographic order of the
  // chosen rows' scan positions (= their key projections) per body atom.
  // Sorting the reordered join's matches by that same key, descending,
  // makes both evaluators fire identical event sequences. The sort is total
  // -- distinct matches differ in some chosen row, and rows of one table
  // differ in their key projection -- so the planned enumeration order
  // never shows through.
  const std::size_t count = matches.size();
  if (count > 1) {
    std::vector<std::vector<Value>> sort_keys(count);
    for (std::size_t m = 0; m < count; ++m) {
      std::vector<Value>& key = sort_keys[m];
      for (std::size_t i = 0; i < rule.body.size(); ++i) {
        if (i == plan.trigger_atom) continue;
        const Tuple& row = *matches[m].chosen[i].tuple;
        const ColumnSet& cols = plan.body_key_cols[i];
        if (cols.empty()) {
          key.insert(key.end(), row.values().begin(), row.values().end());
        } else {
          for (std::size_t col : cols) key.push_back(row.at(col));
        }
      }
    }
    std::vector<std::size_t> order(count);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&sort_keys](std::size_t a, std::size_t b) {
                return sort_keys[b] < sort_keys[a];  // descending
              });
    std::vector<Match> sorted;
    sorted.reserve(count);
    for (std::size_t m : order) sorted.push_back(std::move(matches[m]));
    matches = std::move(sorted);
  }

  // Assignments and constraints (slot-compiled). `satisfying_scratch_` is a
  // member so the per-firing hot path does not allocate.
  std::vector<std::size_t>& satisfying = satisfying_scratch_;
  satisfying.clear();
  for (std::size_t m = 0; m < count; ++m) {
    Regs& r = matches[m].regs;
    bool ok = true;
    try {
      for (const RulePlan::CompiledAssign& assign : plan.assigns) {
        r[assign.slot] = eval_expr(assign.expr, r);
      }
      for (const SlotExpr& constraint : plan.constraints) {
        if (!is_truthy(eval_expr(constraint, r))) {
          ok = false;
          break;
        }
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": constraint error: " << e.what();
      ok = false;
    }
    if (ok) satisfying.push_back(m);
  }
  if (satisfying.empty()) return;

  // argmax selection; ties break exactly like the reference evaluator's
  // Bindings-map comparison (register values in variable-name order).
  if (plan.argmax_slot) {
    const auto regs_less = [&plan](const Regs& a, const Regs& b) {
      for (std::size_t slot : plan.slots_by_name) {
        if (a[slot] < b[slot]) return true;
        if (b[slot] < a[slot]) return false;
      }
      return false;
    };
    std::size_t best = satisfying.front();
    for (std::size_t i = 1; i < satisfying.size(); ++i) {
      const Regs& current = matches[satisfying[i]].regs;
      const Regs& best_regs = matches[best].regs;
      const Value& current_value = current[*plan.argmax_slot];
      const Value& best_value = best_regs[*plan.argmax_slot];
      if (best_value < current_value ||
          (!(current_value < best_value) && regs_less(current, best_regs))) {
        best = satisfying[i];
      }
    }
    satisfying = {best};
  }

  // Fire: evaluate the head and schedule its arrival. The provenance body
  // is the chosen rows' refs, in original body order.
  for (std::size_t m : satisfying) {
    const Match& match = matches[m];
    std::vector<Value> head_values;
    head_values.reserve(plan.head_args.size());
    try {
      for (const SlotExpr& arg : plan.head_args) {
        head_values.push_back(eval_expr(arg, match.regs));
      }
    } catch (const EvalError& e) {
      if (config_.strict_eval) throw;
      DP_WARN << "rule " << rule.name << ": head error: " << e.what();
      continue;
    }
    if (!head_values.front().is_string()) {
      DP_WARN << "rule " << rule.name << ": head location is not a node name";
      continue;
    }
    Tuple head(rule.head.table, std::move(head_values));
    const NodeName& target = head.location();
    if (target != node) {
      ++stats_.remote_messages;
      ++remote_by_node_[target];
    }
    ++rule_firings_[plan.rule_index];

    Event event;
    event.time = t + delivery_delay(node, target);
    event.kind = rule.agg ? Event::Kind::kAggregate
                          : Event::Kind::kDerivedInsert;
    if (rule.agg) {
      event.agg_delta = rule.agg->kind == AggSpec::Kind::kCount
                            ? 1
                            : match.regs[*plan.agg_sum_slot].as_int();
    }
    event.rule = static_cast<std::uint32_t>(plan.rule_index);
    event.trigger_index = static_cast<std::uint32_t>(plan.trigger_atom);
    event.body.reserve(rule.body.size());
    for (const Chosen& row : match.chosen) event.body.push_back(row.ref);
    event.tuple = std::move(head);
    push_event(std::move(event));
  }
}

void Engine::publish_metrics() {
  // Delta-publish: only the growth since the last publish reaches the
  // registry, so a shared registry (EngineConfig::metrics) aggregates
  // correctly across engines and repeated runs.
  const auto publish =
      [this](const auto& name, std::uint64_t cur, std::uint64_t& seen) {
        if (cur > seen) {
          metrics_->counter(name).inc(cur - seen);
          seen = cur;
        }
      };
  publish("dp.runtime.base_inserts", stats_.base_inserts,
          published_.base_inserts);
  publish("dp.runtime.base_deletes", stats_.base_deletes,
          published_.base_deletes);
  publish("dp.runtime.derivations", stats_.derivations,
          published_.derivations);
  publish("dp.runtime.underivations", stats_.underivations,
          published_.underivations);
  publish("dp.runtime.remote_messages", stats_.remote_messages,
          published_.remote_messages);
  publish("dp.runtime.events_processed", stats_.events_processed,
          published_.events_processed);
  publish("dp.runtime.index_probes", stats_.index_probes,
          published_.index_probes);
  publish("dp.runtime.tuples_scanned", stats_.tuples_scanned,
          published_.tuples_scanned);
  publish("dp.runtime.tuples_matched", stats_.tuples_matched,
          published_.tuples_matched);
  for (std::size_t i = 0; i < rule_firings_.size(); ++i) {
    publish(rule_metric_names_[i], rule_firings_[i],
            rule_firings_published_[i]);
  }
  for (std::size_t i = 0; i < table_counts_.size(); ++i) {
    publish(table_metric_names_[i], table_counts_[i],
            table_counts_published_[i]);
  }
  for (const auto& [node, count] : remote_by_node_) {
    std::uint64_t& seen = remote_by_node_published_[node];
    if (count > seen) {
      metrics_
          ->counter("dp.runtime.remote_messages_to." +
                    obs::sanitize_metric_segment(node))
          .inc(count - seen);
      seen = count;
    }
  }
  metrics_->gauge("dp.runtime.queue_depth")
      .set(static_cast<std::int64_t>(queue_.size()));
  metrics_->gauge("dp.runtime.queue_depth_max")
      .set_max(static_cast<std::int64_t>(queue_depth_max_));
}

void Engine::reset_stats() {
  stats_ = Stats{};
  published_ = Stats{};
  std::fill(rule_firings_.begin(), rule_firings_.end(), 0);
  std::fill(rule_firings_published_.begin(), rule_firings_published_.end(), 0);
  std::fill(table_counts_.begin(), table_counts_.end(), 0);
  std::fill(table_counts_published_.begin(), table_counts_published_.end(), 0);
  remote_by_node_.clear();
  remote_by_node_published_.clear();
  queue_depth_max_ = queue_.size();
  // A private registry belongs to this engine alone, so wipe it too; a
  // shared one keeps its cumulative totals (the published_ baselines above
  // make sure this engine re-contributes from zero, not negatively).
  if (own_metrics_ != nullptr) own_metrics_->reset();
}

}  // namespace dp
