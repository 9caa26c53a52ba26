// Temporal tuple tables.
//
// Every tuple carries a history of validity intervals [t1, t2). This is the
// temporal dimension the paper inherits from DTaP (section 3.2): it lets the
// provenance graph "remember" past events, which matters when the reference
// event happened in the past (e.g. scenario SDN3, where the good packet was
// observed before a multicast rule expired).
//
// Insertion follows RapidNet materialized-table semantics: tables declare key
// columns, and inserting a tuple whose key collides with a live row displaces
// that row (it is deleted at the same timestamp). Event tables (materialized
// = false) are not stored at all; they exist for a single instant.
//
// Rows are identified by the TupleRef their tuple was interned under in the
// process-wide store (store/store.h); the caller interns each new tuple once
// and hands the ref to insert(). The history is a hash map from that ref to
// its intervals, so recording an appearance or a disappearance compares
// 4-byte refs, never tuples, and holds no tuple copy. Live rows sit in a
// hash map keyed by their key projection. Join candidates, live_by_key and
// displaced rows hand the row's ref back, so a derivation's body is a list
// of refs the engine already holds -- nothing is re-interned.
//
// Neither map is ordered, so every enumeration that callers can observe
// sorts on demand: for_each_live() and index materialization by key
// projection, for_each_at() structurally (TupleStore::less) -- the orders
// the engine's firings and DiffProv's state scans have always seen. The
// first for_each_live() sorts the live rows once; from then on a row with
// a new key takes its place by binary search and a leaving row gives its
// place up, so full scans (the reference evaluator, cross joins) walk a
// kept order. A table that is never fully scanned keeps no order, and its
// inserts and removes never sort.
//
// Secondary join indexes: the runtime's compiled rule plans probe tables by
// a projection of columns bound at join time (see runtime/plan.h). A table
// lazily materializes one hash index per distinct bound-column set on first
// probe and maintains it incrementally in insert/remove, turning each probe
// into an O(1) bucket lookup instead of an O(n) scan. Bucket entries stay
// sorted by key projection, i.e. in for_each_live() order, so an indexed join
// enumerates exactly the subsequence of for_each_live() that matches -- the
// engine's outputs are byte-identical with or without indexes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "ndlog/schema.h"
#include "ndlog/tuple.h"
#include "store/store.h"
#include "util/chain_heads.h"
#include "util/time.h"

namespace dp {

/// Identifier of a secondary index: the sorted 0-based column positions the
/// probe binds.
using ColumnSet = std::vector<std::size_t>;

class Table {
 public:
  /// A live row: the tuple and the ref it was interned under.
  struct Row {
    Tuple tuple;
    TupleRef ref = kNoTupleRef;
  };

  /// One secondary index: probe projection -> bucket of live rows. Buckets
  /// whose projections share a hash key chain through `next`, and the chain
  /// heads sit in an open-addressed slot array (util/chain_heads.h).
  /// Buckets are never deleted -- a bucket whose rows all die stays behind
  /// empty -- so slots are never vacated and bucket indices stay stable.
  /// Entries point into the live map's nodes (stable until the row is
  /// erased, rehashes included) and stay sorted by key projection, i.e. in
  /// for_each_live() order, which is what keeps indexed joins byte-identical
  /// to the reference scan.
  struct JoinIndex {
    struct Entry {
      const std::vector<Value>* live_key;
      const Row* row;
    };
    struct Bucket {
      std::vector<Value> key;
      std::vector<Entry> entries;
      std::uint32_t next = ChainHeads::kNone;  // older bucket, same hash key
    };

    using HashFn = std::uint64_t (*)(const std::vector<Value>&);
    /// Testing hook: replaces the key hash process-wide -- the join indexes'
    /// probe keys and the live view's key projections alike (e.g. a
    /// constant, to force every key into one collision chain). Must be set
    /// before the tables under test are filled and reset to nullptr after;
    /// a table probed with a different hash than it was built with is
    /// garbage.
    static void set_hash_for_testing(HashFn fn);
    [[nodiscard]] static std::uint64_t hash_key(const std::vector<Value>& key);

    /// The live entries whose projection equals `key`, or nullptr if none.
    /// `hash` must be hash_key(key).
    [[nodiscard]] const std::vector<Entry>* lookup(
        std::uint64_t hash, const std::vector<Value>& key) const;

    // -- maintenance (Table internals; exposed for white-box tests) --
    /// The bucket for `key`, created empty if absent. May grow the slots.
    Bucket& bucket_for(std::uint64_t hash, const std::vector<Value>& key);

    [[nodiscard]] std::size_t slot_count() const { return heads.slot_count(); }
    [[nodiscard]] std::size_t bucket_count() const { return buckets.size(); }

    ChainHeads heads;
    std::vector<Bucket> buckets;

   private:
    /// Index of the bucket holding `key` in `hash`'s chain, else kNone.
    [[nodiscard]] std::uint32_t find(std::uint64_t hash,
                                     const std::vector<Value>& key) const;
    static HashFn hash_override_;
  };

  explicit Table(TableDecl decl) : decl_(std::move(decl)) {}

  // Copies drop the secondary indexes (they hold pointers into the source's
  // live map nodes); they are rebuilt lazily on first probe. Moves keep
  // them: the live map's nodes are pointer-stable across a container move.
  // The kept key order points into the source's nodes too and is dropped
  // alike.
  Table(const Table& other)
      : decl_(other.decl_), rows_(other.rows_), live_(other.live_) {}
  Table& operator=(const Table& other) {
    if (this != &other) {
      decl_ = other.decl_;
      rows_ = other.rows_;
      live_ = other.live_;
      indexes_.clear();
      key_order_.clear();
      key_order_valid_ = false;
    }
    return *this;
  }
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  [[nodiscard]] const TableDecl& decl() const { return decl_; }

  /// Outcome of an insert: whether the tuple was new, and which live tuple
  /// (if any) was displaced by key-based upsert.
  struct InsertResult {
    bool inserted = false;          // false if the identical tuple was live
    std::optional<Row> displaced;   // key collision victim, already removed
  };

  /// Starts a validity interval for `t`, interned in the global store as
  /// `ref`, at `now`. No-op if the identical tuple (the same ref) is already
  /// live.
  InsertResult insert(const Tuple& t, LogicalTime now, TupleRef ref);

  /// Ends the live interval of `t` at `now`. Returns the removed row's ref,
  /// or nullopt if `t` was not live.
  std::optional<TupleRef> remove(const Tuple& t, LogicalTime now);

  /// True if `t` is live now (interval still open).
  [[nodiscard]] bool is_live(const Tuple& t) const;

  /// True if `t` existed at logical time `at`.
  [[nodiscard]] bool existed_at(const Tuple& t, LogicalTime at) const;

  /// Live interval start of `t`, if live.
  [[nodiscard]] std::optional<LogicalTime> live_since(const Tuple& t) const;

  /// Full interval history of `t` (empty if never seen).
  [[nodiscard]] std::vector<TimeInterval> history(const Tuple& t) const;

  /// Deterministic iteration over live rows (sorted by key projection).
  void for_each_live(const std::function<void(const Row&)>& fn) const;

  /// Deterministic iteration over the live rows whose projection on `cols`
  /// (sorted column positions, non-empty) equals `probe`, in the same
  /// relative order as for_each_live(). Materializes the index for `cols` on
  /// first use; insert/remove keep it current afterwards.
  void for_each_live_matching(const ColumnSet& cols,
                              const std::vector<Value>& probe,
                              const std::function<void(const Row&)>& fn) const;

  /// The secondary index for `cols` (sorted, non-empty), materialized from
  /// the live view on first use and maintained incrementally afterwards.
  /// for_each_live_matching probes it; exposed for white-box tests.
  [[nodiscard]] const JoinIndex& index_for(const ColumnSet& cols) const;

  /// Deterministic iteration over tuples alive at time `at`, in structural
  /// tuple order.
  void for_each_at(LogicalTime at,
                   const std::function<void(const Tuple&)>& fn) const;

  /// Number of live tuples.
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }

  /// Number of distinct tuples ever seen (live or dead).
  [[nodiscard]] std::size_t total_count() const { return rows_.size(); }

  /// Number of materialized secondary indexes (observability/testing).
  [[nodiscard]] std::size_t index_count() const { return indexes_.size(); }

  /// Key projection for upsert (per decl). Exposed for testing.
  [[nodiscard]] std::vector<Value> key_of(const Tuple& t) const;

  /// Allocation-free variant: fills `out` (cleared first) and returns it.
  /// The hot paths (is_live/insert/remove, once per event) reuse one scratch
  /// buffer instead of allocating a fresh vector per call.
  const std::vector<Value>& key_of(const Tuple& t,
                                   std::vector<Value>& out) const;

  /// The live row holding `key`, if any (aggregation reads the previous
  /// value through this).
  [[nodiscard]] const Row* live_by_key(const std::vector<Value>& key) const {
    auto it = live_.find(key);
    return it == live_.end() ? nullptr : &it->second;
  }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<Value>& key) const {
      return static_cast<std::size_t>(JoinIndex::hash_key(key));
    }
  };
  using LiveMap = std::unordered_map<std::vector<Value>, Row, KeyHash>;

  /// Projection of `t` on `cols` into `out` (cleared first).
  static void project(const Tuple& t, const ColumnSet& cols,
                      std::vector<Value>& out);

  using KeyOrder = std::vector<const LiveMap::value_type*>;

  /// The live map's entries sorted by key projection: the for_each_live()
  /// and index-bucket order.
  [[nodiscard]] KeyOrder sorted_live() const;
  /// Where the live row with `key` sits (or would sit) in key_order_.
  [[nodiscard]] KeyOrder::iterator key_position(
      const std::vector<Value>& key) const;

  /// Adds/removes the live row `entry` to/from every materialized index.
  /// Removal must happen before the row changes or is erased (entries point
  /// into the node).
  void index_live_row(const LiveMap::value_type& entry) const;
  void unindex_live_row(const LiveMap::value_type& entry) const;

  /// The open interval of the live row interned as `ref`.
  TimeInterval& open_interval(TupleRef ref);
  /// The history of `t`, or nullptr if the global store never interned it
  /// or this table never held it. Probes the store with find(), which never
  /// inserts.
  [[nodiscard]] const std::vector<TimeInterval>* intervals_of(
      const Tuple& t) const;

  TableDecl decl_;
  // Full temporal history per interned tuple; intervals are append-only and
  // non-overlapping.
  std::unordered_map<TupleRef, std::vector<TimeInterval>> rows_;
  // Live view keyed by the declared key columns (whole tuple if none).
  LiveMap live_;
  // Lazily created secondary indexes, one per probed column set. Mutable:
  // index creation is a cache fill on a logically-const probe.
  mutable std::map<ColumnSet, JoinIndex> indexes_;
  // The live rows in key order once for_each_live() has run (a const
  // enumeration, hence mutable); insert/remove keep it from then on.
  mutable KeyOrder key_order_;
  mutable bool key_order_valid_ = false;
  // Scratch buffers for key/probe projections on the hot paths.
  mutable std::vector<Value> key_scratch_;
  mutable std::vector<Value> projection_scratch_;
};

}  // namespace dp
