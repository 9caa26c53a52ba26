// Deterministic distributed NDlog runtime (the RapidNet substitute).
//
// The engine executes a validated Program over a set of named nodes joined
// by links with fixed delays. It is a discrete-event simulator: external
// base-tuple insertions/deletions are scheduled at logical times, rule
// firings are evaluated delta-style (each arriving tuple is joined against
// the materialized state of its node), and derived heads travel to their
// destination node with the link delay. The event loop pops one event at a
// time and evaluates it completely before the next, as RapidNet evaluates
// each delta tuple as it arrives. The heap orders 24-byte (time, sequence,
// slot) keys; a pending event waits in its slot of an event slab, and a pop
// moves that one event out. The order is fully deterministic, which is what
// makes replay-based tree updating (paper sections 4.6/4.8) sound.
//
// Joins run through compiled rule plans (runtime/plan.h) by default: body
// atoms are greedily reordered, variables live in a flat register file, and
// each join step probes a secondary hash index on the table instead of
// scanning it. The pre-plan full-scan evaluator is kept as the test oracle
// (EngineConfig::use_join_plans = false); both paths produce byte-identical
// event orders, outputs, and provenance.
//
// A processed insert costs one store probe: its tuple is interned into the
// process-wide store (store/store.h) there and nowhere else in the engine.
// The table row keeps the ref and the table's history is keyed by it
// (runtime/table.h), and the firings the tuple joins into carry their
// bodies as the refs of the trigger and the joined rows, so observers,
// support counting and retraction all reuse refs the engine already holds
// -- with or without observers attached.
//
// Deletions use counting semantics: each derivation contributes one unit of
// support to its head; when a (base or derived) tuple disappears, dependent
// derivations are deactivated and heads whose support reaches zero are
// underived, recursively (the paper models this as insertion of "delete"
// tuples into an append-only provenance; our observer interface reports the
// same UNDERIVE/DISAPPEAR information).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ndlog/eval.h"
#include "ndlog/program.h"
#include "obs/obs.h"
#include "runtime/observer.h"
#include "runtime/plan.h"
#include "runtime/table.h"
#include "util/time.h"

namespace dp {

/// Latency of a rule firing whose head stays on the same node.
inline constexpr LogicalTime kDeriveDelay = 1;
/// Latency of delivering a head tuple to a different node when no explicit
/// link was configured.
inline constexpr LogicalTime kDefaultLinkDelay = 10;

struct EngineConfig {
  /// If true, a constraint that throws EvalError aborts the run instead of
  /// being treated as a non-match.
  bool strict_eval = false;
  /// If true (default), rules fire through compiled plans with indexed
  /// joins; if false, through the reference full-scan evaluator. Both are
  /// byte-identical in observable behavior (asserted by the cross-variant
  /// tests); the flag exists for differential testing and benchmarking.
  bool use_join_plans = true;
  /// Runaway guard: run() throws ProgramError after this many processed
  /// events. A forwarding loop in a recursive program (e.g. a routing cycle)
  /// would otherwise derive forever; real RapidNet deployments hit the same
  /// issue via TTLs. 0 disables the guard.
  std::uint64_t max_events = 100'000'000;
  /// Metrics sink for the engine's counters (dp.runtime.*). If null the
  /// engine owns a private registry, so per-engine stats stay isolated; pass
  /// &obs::default_registry() (the CLI does, for --metrics-out) or any
  /// shared registry to aggregate across engines. Counters are accumulated
  /// in plain fields on the hot path and published to the registry when a
  /// run completes or Engine::metrics()/stats() is read -- attaching a
  /// registry adds no per-event cost.
  obs::MetricsRegistry* metrics = nullptr;
};

class Engine {
 public:
  explicit Engine(Program program, EngineConfig config = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Declares a bidirectional link with the given delay. Undeclared pairs
  /// fall back to kDefaultLinkDelay.
  void add_link(const NodeName& a, const NodeName& b, LogicalTime delay);

  /// Observers see base inserts/deletes, derivations and underivations in
  /// deterministic order. Not owned; must outlive the engine.
  void add_observer(RuntimeObserver* observer);

  /// Schedules an external base tuple insertion at logical time `at`
  /// (>= now). Throws ProgramError if the table is unknown/not base or the
  /// tuple is malformed.
  void schedule_insert(Tuple tuple, LogicalTime at);

  /// Schedules an external base tuple deletion.
  void schedule_delete(Tuple tuple, LogicalTime at);

  /// Processes events until the queue is empty (quiescence) or, when
  /// `horizon` names tuples, until each of them has appeared and every event
  /// at the time the last of them appeared has been processed. Events pop in
  /// (time, seq) order, so nothing processed after that point can change the
  /// state or the provenance at or before that time. A named tuple that
  /// never appears leaves the run going to quiescence.
  void run(const std::vector<Tuple>& horizon = {});

  /// Processes events with time <= `until`.
  void run_until(LogicalTime until);

  /// Logical time of the last processed event.
  [[nodiscard]] LogicalTime now() const { return now_; }

  [[nodiscard]] const Program& program() const { return program_; }

  /// Node-local table (nullptr if nothing was ever stored there).
  [[nodiscard]] const Table* find_table(const NodeName& node,
                                        const std::string& table) const;

  /// True if `tuple` is live on its location node.
  [[nodiscard]] bool is_live(const Tuple& tuple) const;

  /// True if `tuple` existed at time `at`.
  [[nodiscard]] bool existed_at(const Tuple& tuple, LogicalTime at) const;

  /// Live tuples of `table` across all nodes, deterministically ordered.
  [[nodiscard]] std::vector<Tuple> live_tuples(const std::string& table) const;

  /// All node names that currently hold any state.
  [[nodiscard]] std::vector<NodeName> nodes() const;

  struct Stats {
    std::uint64_t base_inserts = 0;
    std::uint64_t base_deletes = 0;
    std::uint64_t derivations = 0;
    std::uint64_t underivations = 0;
    std::uint64_t remote_messages = 0;  // head shipped across a link
    std::uint64_t events_processed = 0;
    // Join counters (both evaluators). A healthy indexed run shows
    // tuples_scanned close to tuples_matched; the full-scan reference shows
    // tuples_scanned ~ sum of table sizes per firing.
    std::uint64_t index_probes = 0;    // secondary-index bucket lookups
    std::uint64_t tuples_scanned = 0;  // join candidates examined
    std::uint64_t tuples_matched = 0;  // candidates surviving unification
  };
  /// Façade over the dp.runtime.* registry counters: the struct mirrors what
  /// the engine has published (plus anything not yet published).
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Zeroes the engine's counters -- the Stats façade, the per-rule firing
  /// counts, the per-table activity counts, the per-node remote-message
  /// counts and the queue-depth high-water mark -- so repeated scenario runs
  /// on one engine start from zero. An engine-private registry is reset too;
  /// in a shared registry (EngineConfig::metrics) the cumulative totals are
  /// left alone and only this engine's future contributions restart.
  void reset_stats();

  /// The registry this engine publishes into (after syncing pending
  /// counts). Private unless EngineConfig::metrics was set.
  [[nodiscard]] obs::MetricsRegistry& metrics() {
    publish_metrics();
    return *metrics_;
  }

  /// Number of live entries in the derivation support map (regression guard:
  /// retraction must erase exhausted entries, not leave zeroes behind).
  [[nodiscard]] std::size_t support_entries() const {
    return support_.size();
  }

 private:
  struct Event {
    LogicalTime time = 0;
    enum class Kind : std::uint8_t {
      kBaseInsert,
      kBaseDelete,
      kDerivedInsert,
      kAggregate,  // head carries a placeholder at the aggregate column
    } kind = Kind::kBaseInsert;
    // For kDerivedInsert/kAggregate: provenance of the firing -- the rule's
    // index in program_.rules(), the triggering body position, and the body
    // in rule body order as the refs of the trigger and the joined rows.
    std::uint32_t rule = 0;
    std::uint32_t trigger_index = 0;
    Tuple tuple;
    std::vector<TupleRef> body;
    std::int64_t agg_delta = 0;  // kAggregate: the contribution
  };

  // The heap's element: an event's order and where the event waits. The
  // heap sifts these 24-byte keys; the events stay put in their slots until
  // popped.
  struct QueueKey {
    LogicalTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;  // index into events_

    bool operator>(const QueueKey& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // One unit of support for a derived head. The head and rule are interned
  // refs (the record's body registers in records_by_body_ and is not needed
  // afterwards), so a record is 12 bytes however wide the tuples are.
  struct DerivRecord {
    TupleRef head = kNoTupleRef;
    NameRef rule = kNoName;
    bool active = true;
  };

  // Tie-breaking at equal times is (time, seq), with seqs drawn from two
  // bands: externally scheduled base events take [0, 2^48) in scheduling
  // order, engine-generated events (derivations, aggregates) take
  // [2^48, ...) in creation order. Batch callers schedule every base event
  // before run(), so the bands reproduce the historical single-counter
  // order exactly (base events were scheduled first and held the lowest
  // seqs). What the bands add is *incremental* feeding: a base event
  // scheduled mid-run -- after some derivations were already queued -- still
  // sorts before every equal-time derived event, exactly where batch
  // scheduling would have put it. A live stream (service/session.h) depends
  // on this to keep its fed engine byte-identical to a full replay of the
  // same event prefix.
  static constexpr std::uint64_t kInternalSeqBand = 1ull << 48;

  /// Enqueues an engine-generated event (internal seq band).
  void push_event(Event event);
  /// Enqueues an externally scheduled base event (low seq band).
  void push_external_event(Event event);
  /// Parks `event` in a free slot and pushes its key.
  void enqueue(Event event, std::uint64_t seq);
  /// Moves the front (earliest) event out of the queue. Precondition: the
  /// queue is non-empty.
  Event pop_event();
  void process(const Event& event);
  /// Stops awaiting `tuple` (interned as `ref`) if the run's horizon names
  /// it.
  void note_appearance(const Tuple& tuple, TupleRef ref);
  /// Interns the new tuple -- the event's one store probe -- and inserts,
  /// notifies and fires with that ref.
  void process_insert(const Event& event);
  void process_delete(const Tuple& tuple, LogicalTime t);

  /// Resolves an aggregate firing: reads the group's previous value, builds
  /// the new head tuple, chains the previous aggregate into the provenance
  /// body, and hands over to process_insert. Serialized through the event
  /// queue, so concurrent contributions never lose updates.
  void process_aggregate(const Event& event);

  /// Cascades support-count maintenance after `tuple` disappeared:
  /// derivations that consumed it are deactivated and heads whose support
  /// reaches zero are underived, recursively (same timestamp).
  void retract_dependents_of(TupleRef tuple, LogicalTime t);

  /// Reference evaluator: joins `arrival` (interned as `arrival_ref`,
  /// already bound at body position `atom_index` of `rule`) against
  /// node-local state by scanning each remaining table, and fires the rule
  /// for every satisfying binding.
  void fire_rule(const Rule& rule, std::size_t atom_index,
                 const Tuple& arrival, TupleRef arrival_ref, LogicalTime t);

  /// Plan evaluator: same semantics as fire_rule, but joins through the
  /// compiled plan -- indexed probes, flat registers, reordered atoms --
  /// then restores the reference candidate order before firing, so both
  /// evaluators schedule identical event sequences.
  void fire_rule_planned(const RulePlan& plan, const Tuple& arrival,
                         TupleRef arrival_ref, LogicalTime t);

  /// Attempts to unify `tuple` with `atom` under `bindings`; returns false
  /// on mismatch, otherwise extends `bindings`.
  static bool unify(const BodyAtom& atom, const Tuple& tuple,
                    Bindings& bindings);

  Table& table_for(const Tuple& tuple);
  [[nodiscard]] LogicalTime delivery_delay(const NodeName& from,
                                           const NodeName& to) const;

  // The per-table split of Stats' four tuple counters, published as
  // dp.runtime.table.<table>.<action>.
  enum TableAction : std::uint8_t { kInserts, kDeletes, kDerives, kUnderives };
  static constexpr std::size_t kTableActions = 4;
  void count(const TableDecl& decl, TableAction action) {
    ++table_counts_[decl.ordinal * kTableActions + action];
  }

  /// Syncs the gap between the hot-path counters and what the registry has
  /// already seen (delta-publish, so a shared registry aggregates correctly
  /// across engines and repeated runs).
  void publish_metrics();

  Program program_;
  EngineConfig config_;
  // Per-rule facts, computed once so processing a derivation does no name
  // interning or table lookups for its body.
  struct RuleFacts {
    NameRef name = kNoName;   // the interned rule name
    bool event_body = false;  // some body atom is over an event table
  };
  std::vector<RuleFacts> rule_facts_;  // indexed like program_.rules()
  // rules_listening_to() result per table, precomputed: the per-event hot
  // path must not rescan (and reallocate) the rule list.
  std::map<std::string, std::vector<std::size_t>> listeners_;
  // Compiled join plans per trigger table, in (rule, atom) firing order.
  std::map<std::string, std::vector<RulePlan>> plans_;
  std::map<NodeName, std::map<std::string, Table>> state_;
  std::map<std::pair<NodeName, NodeName>, LogicalTime> links_;
  // Min-heap of keys on (time, seq) via std::push_heap/std::pop_heap; each
  // key names the slot of events_ its event waits in. A pop moves that one
  // event out and frees the slot for the next push.
  std::vector<QueueKey> queue_;
  std::vector<Event> events_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;           // internal band (derivations)
  std::uint64_t next_external_seq_ = 0;  // external band (scheduled bases)
  LogicalTime now_ = 0;
  std::vector<RuntimeObserver*> observers_;
  // The current run's horizon tuples that have not appeared yet, each with
  // its ref (kNoTupleRef while it is not in the store, when it is matched by
  // value instead).
  struct Awaited {
    Tuple tuple;
    TupleRef ref = kNoTupleRef;
  };
  std::vector<Awaited> awaited_;

  std::vector<DerivRecord> records_;
  // Support bookkeeping keyed by interned refs: O(1) hashes of a 4-byte key
  // instead of ordered full-tuple comparisons, and no second tuple copy.
  std::unordered_map<TupleRef, std::vector<std::size_t>> records_by_body_;
  std::unordered_map<TupleRef, std::vector<std::size_t>> records_by_head_;
  std::unordered_map<TupleRef, std::int64_t> support_;
  // fire_rule_planned's surviving-match indexes (reused per firing).
  std::vector<std::size_t> satisfying_scratch_;

  // Hot-path counters are plain (the engine is single-threaded); they are
  // delta-published into metrics_ when a run completes. published_ /
  // *_published_ remember what the registry has already absorbed.
  Stats stats_;
  Stats published_;
  std::vector<std::uint64_t> rule_firings_;
  std::vector<std::uint64_t> rule_firings_published_;
  // kTableActions counters per table, at TableDecl::ordinal * kTableActions
  // + action, with their metric names at the same index.
  std::vector<std::uint64_t> table_counts_;
  std::vector<std::uint64_t> table_counts_published_;
  std::vector<std::string> table_metric_names_;
  std::map<NodeName, std::uint64_t> remote_by_node_;
  std::map<NodeName, std::uint64_t> remote_by_node_published_;
  // Precomputed per-rule labels so the firing hot path never concatenates:
  // span names "rule:<name>" (interned in the global NamePool, so they
  // outlive the engine) and metric names "dp.runtime.rule_firings.<name>".
  std::vector<std::string_view> rule_span_labels_;
  std::vector<std::string> rule_metric_names_;
  std::size_t queue_depth_max_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;    // publish target (never null)
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;  // when config.metrics==null
  // dp.runtime.rule_fire_us, cached. Observed only for traced firings, so
  // the untraced hot path stays branch-free.
  obs::QuantileSketch* fire_sketch_ = nullptr;
};

}  // namespace dp
