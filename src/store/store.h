// Process-wide interned tuple storage (the storage layer under the
// provenance graph, the event log, and the serving tier).
//
// Every layer of the system used to pass and keep full Tuple copies: each
// provenance vertex carried one, the exist-index keyed a second, the event
// log a third, and warm sessions kept all of them resident. Provenance at
// scale lives or dies on structure-shared storage ("Provenance for
// Large-scale Datalog", Zhao, Subotic, Scholz) -- a tuple that appears in
// 10k derivations should be stored once and referenced 10k times. This
// module provides that:
//
//   * ValuePool   hash-conses Values into immutable, arena-backed records
//                 addressed by a 32-bit ValueRef.
//   * NamePool    interns table/rule-name strings (32-bit ids).
//   * TupleStore  hash-conses Tuples into columnar records -- a table-name
//                 id plus a span of ValueRefs in a flat arena -- addressed
//                 by a 32-bit TupleRef. `resolve()` lazily materializes (and
//                 caches) one canonical Tuple per record for the code paths
//                 that still want value semantics; everything else reads the
//                 columns directly.
//
// Interned records are immutable and live for the lifetime of the store
// (the process, for `global_store()`), which is exactly what lets DiffProv
// compare proof trees across independent replays by reference: a TupleRef
// minted during the bad run is still valid while diffing against the good
// run, and ref equality coincides with structural tuple equality.
//
// Thread model: interning is serialized on a shared_mutex; reads of interned
// records (resolve, value access, name lookup) are lock-free via the
// chunked-arena storage (chunked_array.h). Multiple replay sessions -- the
// service's worker pool -- intern into one global store concurrently.
#pragma once

#include <cstdint>
#include <functional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "ndlog/tuple.h"
#include "ndlog/value.h"
#include "obs/metrics.h"
#include "store/chunked_array.h"
#include "util/chain_heads.h"

namespace dp {

/// Handle of an interned Value. Equal refs <=> equal values (per pool).
using ValueRef = std::uint32_t;
inline constexpr ValueRef kNoValueRef = static_cast<ValueRef>(-1);

/// Handle of an interned Tuple. Equal refs <=> structurally equal tuples
/// (per store).
using TupleRef = std::uint32_t;
inline constexpr TupleRef kNoTupleRef = static_cast<TupleRef>(-1);

/// Handle of an interned name (table or rule). kNoName renders as "".
using NameRef = std::uint32_t;
inline constexpr NameRef kNoName = static_cast<NameRef>(-1);

/// Deduplicating value storage. Each distinct Value is stored once; interning
/// an equal value again returns the original ref (hash-consing with full
/// equality checks along each hash-key collision chain).
class ValuePool {
 public:
  /// Structural hash the chain index keys on. Injectable so tests can force
  /// every value into one collision chain; nullptr means Value::hash.
  using HashFn = std::uint64_t (*)(const Value&);

  explicit ValuePool(HashFn hash = nullptr) : hash_fn_(hash) {}

  ValuePool(const ValuePool&) = delete;
  ValuePool& operator=(const ValuePool&) = delete;

  /// Returns the ref of `v`, inserting it if unseen.
  ValueRef intern(const Value& v);

  /// The interned value. Lock-free; `ref` must have come from this pool.
  [[nodiscard]] const Value& value(ValueRef ref) const { return values_[ref]; }

  [[nodiscard]] std::size_t size() const { return values_.size(); }

  struct Stats {
    std::uint64_t values = 0;
    std::uint64_t hits = 0;    // intern() calls that found an existing record
    std::uint64_t misses = 0;  // intern() calls that inserted
    std::uint64_t index_slots = 0;  // chain-head slots (kSlotBytes each)
    std::uint64_t bytes = 0;   // arena + string heap estimate + slot array
  };
  [[nodiscard]] Stats stats() const;

 private:
  [[nodiscard]] std::uint64_t hash_of(const Value& v) const {
    return hash_fn_ != nullptr ? hash_fn_(v) : v.hash();
  }
  [[nodiscard]] ValueRef find_in_chain(std::uint32_t key,
                                       const Value& v) const;

  HashFn hash_fn_;
  mutable std::shared_mutex mutex_;
  ChainHeads index_;  // hash key -> chain head
  store_detail::ChunkedArray<Value> values_;
  store_detail::ChunkedArray<ValueRef> next_;  // same-key collision chain
  std::uint64_t string_bytes_ = 0;             // heap behind string values
  mutable std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

/// Interned strings for table and rule names (few dozen per program; shared
/// so vertices and columnar tuple records store 4-byte ids).
class NamePool {
 public:
  NamePool() = default;
  NamePool(const NamePool&) = delete;
  NamePool& operator=(const NamePool&) = delete;

  NameRef intern(std::string_view name);

  /// Lock-free; kNoName returns the empty string.
  [[nodiscard]] const std::string& name(NameRef ref) const {
    static const std::string kEmpty;
    return ref == kNoName ? kEmpty : names_[ref];
  }

  [[nodiscard]] std::size_t size() const { return names_.size(); }

 private:
  mutable std::shared_mutex mutex_;
  // Keys view into the interned strings, whose heap buffers never move.
  std::unordered_map<std::string_view, NameRef> index_;
  store_detail::ChunkedArray<std::string> names_;
};

/// Hash-consed, columnar tuple storage. A record is a table-name id plus a
/// contiguous span of ValueRefs in a flat arena; the struct-of-arrays layout
/// keeps a record at ~10 + 4*arity bytes regardless of how many vertices,
/// log entries, or proof-tree nodes reference it.
class TupleStore {
 public:
  using TupleHashFn = std::uint64_t (*)(const Tuple&);

  /// Hash functions are injectable for collision testing; nullptr means the
  /// structural Value::hash / Tuple::hash.
  explicit TupleStore(ValuePool::HashFn value_hash = nullptr,
                      TupleHashFn tuple_hash = nullptr)
      : tuple_hash_(tuple_hash), pool_(value_hash) {}

  TupleStore(const TupleStore&) = delete;
  TupleStore& operator=(const TupleStore&) = delete;
  ~TupleStore();

  /// Returns the ref of `t`, inserting it if unseen. An equal tuple always
  /// returns the same ref, so ref comparison is tuple equality. One probe:
  /// `t` is hashed once, its chain head read from one slot of the
  /// open-addressed index, and `t` compared field by field along the chain
  /// under one shared lock; its values and table name are interned only
  /// when the tuple is new.
  TupleRef intern(const Tuple& t);

  /// Ref of `t` if interned, else kNoTupleRef. The same single probe as
  /// intern(); never inserts (lookups of never-recorded tuples must not
  /// grow the store).
  [[nodiscard]] TupleRef find(const Tuple& t) const;

  /// The canonical materialized Tuple behind `ref`. Built lazily on first
  /// resolve and cached, so every caller shares one copy; the reference is
  /// stable for the lifetime of the store.
  [[nodiscard]] const Tuple& resolve(TupleRef ref) const;

  // --- columnar access (no materialization) ---
  [[nodiscard]] NameRef table_id(TupleRef ref) const { return table_[ref]; }
  [[nodiscard]] const std::string& table_name(TupleRef ref) const {
    return names_.name(table_[ref]);
  }
  [[nodiscard]] std::size_t arity(TupleRef ref) const { return arity_[ref]; }
  [[nodiscard]] const Value& value(TupleRef ref, std::size_t i) const {
    return pool_.value(refs_[begin_[ref] + i]);
  }
  [[nodiscard]] ValueRef value_ref(TupleRef ref, std::size_t i) const {
    return refs_[begin_[ref] + i];
  }
  /// The location specifier (field 0), for sharding and node filters.
  [[nodiscard]] const NodeName& location(TupleRef ref) const {
    return value(ref, 0).as_string();
  }

  /// Structural order identical to Tuple::operator< (table name, then values
  /// lexicographically), computed on the columns.
  [[nodiscard]] bool less(TupleRef a, TupleRef b) const;

  /// Rendering identical to Tuple::to_string().
  [[nodiscard]] std::string to_string(TupleRef ref) const {
    return resolve(ref).to_string();
  }

  [[nodiscard]] std::size_t size() const { return table_.size(); }

  [[nodiscard]] ValuePool& values() { return pool_; }
  [[nodiscard]] const ValuePool& values() const { return pool_; }
  [[nodiscard]] NamePool& names() { return names_; }
  [[nodiscard]] const NamePool& names() const { return names_; }

  struct Stats {
    std::uint64_t tuples = 0;
    std::uint64_t values = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t resolved = 0;  // canonical tuples materialized
    std::uint64_t index_slots = 0;  // tuple chain-head slots (kSlotBytes each)
    // Columns + value pool + canonical cache + both slot arrays.
    std::uint64_t bytes = 0;
    [[nodiscard]] double hit_rate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) /
                       static_cast<double>(hits + misses);
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Publishes dp.store.* gauges/counters (interned values/tuples, resident
  /// bytes, intern hit rate in ppm) into `registry`. Gauges are absolute;
  /// safe to call repeatedly from any thread.
  void publish_metrics(obs::MetricsRegistry& registry) const;

 private:
  [[nodiscard]] std::uint64_t hash_of(const Tuple& t) const {
    return tuple_hash_ != nullptr ? tuple_hash_(t) : t.hash();
  }
  /// The record structurally equal to `t` in `key`'s chain, else
  /// kNoTupleRef. Caller holds the lock (shared or unique).
  [[nodiscard]] TupleRef find_in_chain(std::uint32_t key,
                                       const Tuple& t) const;
  /// Appends a new record (columns, chain, canonical slot). Caller holds the
  /// unique lock and has verified the tuple is absent.
  TupleRef insert_locked(std::uint32_t key, NameRef table,
                         const ValueRef* refs, std::size_t n, const Tuple& t);

  TupleHashFn tuple_hash_;
  ValuePool pool_;
  NamePool names_;

  mutable std::shared_mutex mutex_;
  ChainHeads index_;  // hash key -> chain head

  // Columnar record storage (struct of arrays).
  store_detail::ChunkedArray<NameRef> table_;
  store_detail::ChunkedArray<std::uint32_t> begin_;  // offset into refs_
  store_detail::ChunkedArray<std::uint16_t> arity_;
  store_detail::ChunkedArray<TupleRef> next_;  // same-key collision chain
  // Flat ValueRef arena; record `r` owns refs_[begin_[r] .. +arity_[r]).
  store_detail::ChunkedArray<ValueRef> refs_;
  // Lazily materialized canonical tuples (resolve()).
  mutable store_detail::ChunkedArray<std::atomic<const Tuple*>> canonical_;
  mutable std::atomic<std::uint64_t> resolved_{0};
  mutable std::atomic<std::uint64_t> resolved_bytes_{0};
  mutable std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  // Counter values as of the last publish_metrics (delta publishing).
  mutable std::atomic<std::uint64_t> published_hits_{0};
  mutable std::atomic<std::uint64_t> published_misses_{0};
};

/// The process-wide store every layer records into. Refs from different
/// TupleStore instances are not interchangeable; the runtime, provenance,
/// replay, and service layers all use this one.
TupleStore& global_store();

/// Shorthands for the global store.
inline TupleRef intern_tuple(const Tuple& t) {
  return global_store().intern(t);
}
inline const Tuple& resolve_tuple(TupleRef ref) {
  return global_store().resolve(ref);
}
inline NameRef intern_name(std::string_view name) {
  return global_store().names().intern(name);
}
inline const std::string& resolve_name(NameRef ref) {
  return global_store().names().name(ref);
}

}  // namespace dp
