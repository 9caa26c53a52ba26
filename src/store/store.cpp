#include "store/store.h"

#include <cassert>
#include <mutex>

namespace dp {

namespace {

/// Heap bytes behind a value beyond its inline footprint (string storage).
std::uint64_t value_heap_bytes(const Value& v) {
  if (!v.is_string()) return 0;
  const std::string& s = v.as_string();
  // Small strings live inline in libstdc++/libc++; only counted when the
  // buffer is actually heap-allocated.
  return s.capacity() + 1 > sizeof(std::string) ? s.capacity() + 1 : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// ValuePool

ValueRef ValuePool::find_in_chain(std::uint32_t key, const Value& v) const {
  for (ValueRef r = index_.head(key); r != kNoValueRef; r = next_[r]) {
    if (values_[r] == v) return r;
  }
  return kNoValueRef;
}

ValueRef ValuePool::intern(const Value& v) {
  const std::uint32_t key = ChainHeads::key_of(hash_of(v));
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const ValueRef r = find_in_chain(key, v);
    if (r != kNoValueRef) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Re-probe: another thread may have interned v between the locks.
  const ValueRef existing = find_in_chain(key, v);
  if (existing != kNoValueRef) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return existing;
  }
  const auto r = static_cast<ValueRef>(values_.push_back(v));
  next_.push_back(index_.push(key, r));  // chain the old head
  string_bytes_ += value_heap_bytes(values_[r]);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return r;
}

ValuePool::Stats ValuePool::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  std::shared_lock<std::shared_mutex> lock(mutex_);
  s.values = values_.size();
  s.index_slots = index_.slot_count();
  s.bytes = values_.allocated_bytes() + next_.allocated_bytes() +
            string_bytes_ + index_.bytes();
  return s;
}

// ---------------------------------------------------------------------------
// NamePool

NameRef NamePool::intern(std::string_view name) {
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    auto it = index_.find(name);
    if (it != index_.end()) return it->second;
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  auto it = index_.find(name);
  if (it != index_.end()) return it->second;
  const auto r = static_cast<NameRef>(names_.push_back(std::string(name)));
  index_.emplace(std::string_view(names_[r]), r);
  return r;
}

// ---------------------------------------------------------------------------
// TupleStore

namespace {
/// Scratch for a new tuple's value refs during intern; thread-local so the
/// insert path never allocates once warmed up.
thread_local std::vector<ValueRef> t_scratch_refs;
}  // namespace

TupleStore::~TupleStore() {
  const std::size_t n = canonical_.size();
  for (std::size_t i = 0; i < n; ++i) {
    delete canonical_[i].load(std::memory_order_relaxed);
  }
}

TupleRef TupleStore::find_in_chain(std::uint32_t key, const Tuple& t) const {
  const std::size_t n = t.arity();
  for (TupleRef r = index_.head(key); r != kNoTupleRef; r = next_[r]) {
    if (arity_[r] != n || names_.name(table_[r]) != t.table()) continue;
    // The name and value pools read lock-free, so the whole probe runs
    // under this one shared lock.
    const std::uint32_t begin = begin_[r];
    std::size_t i = 0;
    while (i < n && pool_.value(refs_[begin + i]) == t.at(i)) ++i;
    if (i == n) return r;
  }
  return kNoTupleRef;
}

TupleRef TupleStore::insert_locked(std::uint32_t key, NameRef table,
                                   const ValueRef* refs, std::size_t n,
                                   [[maybe_unused]] const Tuple& t) {
  const auto begin = static_cast<std::uint32_t>(refs_.size());
  for (std::size_t i = 0; i < n; ++i) refs_.push_back(refs[i]);
  const auto r = static_cast<TupleRef>(table_.push_back(table));
  begin_.push_back(begin);
  arity_.push_back(static_cast<std::uint16_t>(n));
  canonical_.publish(canonical_.emplace_default() + 1);
  next_.push_back(index_.push(key, r));  // chain the old head
  misses_.fetch_add(1, std::memory_order_relaxed);
#ifndef NDEBUG
  // The no-second-copy invariant: the record just written must round-trip to
  // a tuple structurally equal to the input, and re-interning must find it
  // (i.e. the store never ends up with two records for one tuple).
  assert(find_in_chain(key, t) == r &&
         "TupleStore: duplicate record for one tuple");
  assert(table_name(r) == t.table() && arity(r) == t.arity());
  for (std::size_t i = 0; i < t.arity(); ++i) {
    assert(value(r, i) == t.at(i) &&
           "TupleStore: interned record does not match input tuple");
  }
#endif
  return r;
}

TupleRef TupleStore::intern(const Tuple& t) {
  const std::uint32_t key = ChainHeads::key_of(hash_of(t));
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    const TupleRef r = find_in_chain(key, t);
    if (r != kNoTupleRef) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return r;
    }
  }
  // A miss: only now intern the values and the name (each pool takes its
  // own lock), then insert under the store's unique lock.
  std::vector<ValueRef>& refs = t_scratch_refs;
  refs.clear();
  refs.reserve(t.arity());
  for (const Value& v : t.values()) refs.push_back(pool_.intern(v));
  const NameRef table = names_.intern(t.table());
  std::unique_lock<std::shared_mutex> lock(mutex_);
  // Re-probe: another thread may have interned t between the locks.
  const TupleRef existing = find_in_chain(key, t);
  if (existing != kNoTupleRef) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return existing;
  }
  return insert_locked(key, table, refs.data(), refs.size(), t);
}

TupleRef TupleStore::find(const Tuple& t) const {
  const std::uint32_t key = ChainHeads::key_of(hash_of(t));
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return find_in_chain(key, t);
}

const Tuple& TupleStore::resolve(TupleRef ref) const {
  const Tuple* cached = canonical_[ref].load(std::memory_order_acquire);
  if (cached != nullptr) return *cached;

  // First resolve of this record: materialize one canonical copy under the
  // store lock (double-checked so concurrent resolvers share it).
  std::unique_lock<std::shared_mutex> lock(mutex_);
  std::atomic<const Tuple*>& slot = canonical_.mutable_at(ref);
  cached = slot.load(std::memory_order_relaxed);
  if (cached != nullptr) return *cached;

  std::vector<Value> values;
  const std::size_t n = arity_[ref];
  values.reserve(n);
  const std::uint32_t begin = begin_[ref];
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(pool_.value(refs_[begin + i]));
  }
  auto* fresh = new Tuple(names_.name(table_[ref]), std::move(values));
  slot.store(fresh, std::memory_order_release);
  resolved_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bytes = sizeof(Tuple) + fresh->table().capacity() +
                        fresh->arity() * sizeof(Value);
  for (const Value& v : fresh->values()) bytes += value_heap_bytes(v);
  resolved_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  return *fresh;
}

bool TupleStore::less(TupleRef a, TupleRef b) const {
  if (a == b) return false;
  // Mirrors Tuple::operator<: table name, then values lexicographically.
  const std::string& ta = table_name(a);
  const std::string& tb = table_name(b);
  if (ta != tb) return ta < tb;
  const std::size_t na = arity(a);
  const std::size_t nb = arity(b);
  const std::size_t n = na < nb ? na : nb;
  for (std::size_t i = 0; i < n; ++i) {
    const ValueRef ra = value_ref(a, i);
    const ValueRef rb = value_ref(b, i);
    if (ra == rb) continue;  // interned: same ref <=> equal value
    const Value& va = pool_.value(ra);
    const Value& vb = pool_.value(rb);
    if (va < vb) return true;
    if (vb < va) return false;
  }
  return na < nb;
}

TupleStore::Stats TupleStore::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.resolved = resolved_.load(std::memory_order_relaxed);
  const ValuePool::Stats vs = pool_.stats();
  s.values = vs.values;
  std::shared_lock<std::shared_mutex> lock(mutex_);
  s.tuples = table_.size();
  s.index_slots = index_.slot_count();
  s.bytes = vs.bytes + table_.allocated_bytes() + begin_.allocated_bytes() +
            arity_.allocated_bytes() + next_.allocated_bytes() +
            refs_.allocated_bytes() + canonical_.allocated_bytes() +
            resolved_bytes_.load(std::memory_order_relaxed) + index_.bytes();
  return s;
}

void TupleStore::publish_metrics(obs::MetricsRegistry& registry) const {
  const Stats s = stats();
  registry.gauge("dp.store.values").set(static_cast<std::int64_t>(s.values));
  registry.gauge("dp.store.tuples").set(static_cast<std::int64_t>(s.tuples));
  registry.gauge("dp.store.names")
      .set(static_cast<std::int64_t>(names_.size()));
  registry.gauge("dp.store.resolved")
      .set(static_cast<std::int64_t>(s.resolved));
  registry.gauge("dp.store.bytes").set(static_cast<std::int64_t>(s.bytes));
  registry.gauge("dp.store.hit_rate_ppm")
      .set(static_cast<std::int64_t>(s.hit_rate() * 1e6));
  // Counters are cumulative; publish the delta since the last call so
  // repeated publishes don't double-count.
  static_assert(sizeof(std::uint64_t) == 8);
  const std::uint64_t hits_prev =
      published_hits_.exchange(s.hits, std::memory_order_relaxed);
  const std::uint64_t misses_prev =
      published_misses_.exchange(s.misses, std::memory_order_relaxed);
  if (s.hits > hits_prev) {
    registry.counter("dp.store.intern_hits").inc(s.hits - hits_prev);
  }
  if (s.misses > misses_prev) {
    registry.counter("dp.store.intern_misses").inc(s.misses - misses_prev);
  }
}

TupleStore& global_store() {
  static TupleStore* store = new TupleStore();  // never destroyed: refs held
                                                // at exit must stay valid
  return *store;
}

}  // namespace dp
