#include "runtime/table.h"

#include <algorithm>
#include <cassert>

#include "util/hash.h"

namespace dp {

// ---------------------------------------------------------------------------
// Table::JoinIndex

Table::JoinIndex::HashFn Table::JoinIndex::hash_override_ = nullptr;

void Table::JoinIndex::set_hash_for_testing(HashFn fn) { hash_override_ = fn; }

std::uint64_t Table::JoinIndex::hash_key(const std::vector<Value>& key) {
  if (hash_override_ != nullptr) return hash_override_(key);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) h = hash_mix(h, v.hash());
  return h;
}

std::uint32_t Table::JoinIndex::find(std::uint64_t hash,
                                     const std::vector<Value>& key) const {
  for (std::uint32_t b = heads.head(ChainHeads::key_of(hash));
       b != ChainHeads::kNone; b = buckets[b].next) {
    if (buckets[b].key == key) return b;
  }
  return ChainHeads::kNone;
}

const std::vector<Table::JoinIndex::Entry>* Table::JoinIndex::lookup(
    std::uint64_t hash, const std::vector<Value>& key) const {
  const std::uint32_t b = find(hash, key);
  return b == ChainHeads::kNone || buckets[b].entries.empty()
             ? nullptr
             : &buckets[b].entries;
}

Table::JoinIndex::Bucket& Table::JoinIndex::bucket_for(
    std::uint64_t hash, const std::vector<Value>& key) {
  const std::uint32_t found = find(hash, key);
  if (found != ChainHeads::kNone) return buckets[found];
  const auto b = static_cast<std::uint32_t>(buckets.size());
  buckets.push_back(Bucket{key, {}, heads.push(ChainHeads::key_of(hash), b)});
  return buckets.back();
}

// ---------------------------------------------------------------------------
// Table

std::vector<Value> Table::key_of(const Tuple& t) const {
  if (decl_.key_columns.empty()) return t.values();
  std::vector<Value> key;
  key.reserve(decl_.key_columns.size());
  for (std::size_t col : decl_.key_columns) {
    assert(col < t.arity());
    key.push_back(t.at(col));
  }
  return key;
}

const std::vector<Value>& Table::key_of(const Tuple& t,
                                        std::vector<Value>& out) const {
  out.clear();
  if (decl_.key_columns.empty()) {
    out.assign(t.values().begin(), t.values().end());
    return out;
  }
  out.reserve(decl_.key_columns.size());
  for (std::size_t col : decl_.key_columns) {
    assert(col < t.arity());
    out.push_back(t.at(col));
  }
  return out;
}

void Table::project(const Tuple& t, const ColumnSet& cols,
                    std::vector<Value>& out) {
  out.clear();
  out.reserve(cols.size());
  for (std::size_t col : cols) {
    assert(col < t.arity());
    out.push_back(t.at(col));
  }
}

Table::KeyOrder Table::sorted_live() const {
  KeyOrder order;
  order.reserve(live_.size());
  for (const auto& entry : live_) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const LiveMap::value_type* a, const LiveMap::value_type* b) {
              return a->first < b->first;
            });
  return order;
}

Table::KeyOrder::iterator Table::key_position(
    const std::vector<Value>& key) const {
  return std::lower_bound(
      key_order_.begin(), key_order_.end(), key,
      [](const LiveMap::value_type* live, const std::vector<Value>& k) {
        return live->first < k;
      });
}

void Table::index_live_row(const LiveMap::value_type& live) const {
  for (auto& [cols, index] : indexes_) {
    project(live.second.tuple, cols, projection_scratch_);
    auto& entries =
        index
            .bucket_for(JoinIndex::hash_key(projection_scratch_),
                        projection_scratch_)
            .entries;
    const JoinIndex::Entry entry{&live.first, &live.second};
    // Keep the bucket sorted by key projection: indexed enumeration must
    // match for_each_live()'s relative order (determinism guarantee).
    const auto pos = std::lower_bound(
        entries.begin(), entries.end(), entry,
        [](const JoinIndex::Entry& a, const JoinIndex::Entry& b) {
          return *a.live_key < *b.live_key;
        });
    entries.insert(pos, entry);
  }
}

void Table::unindex_live_row(const LiveMap::value_type& live) const {
  for (auto& [cols, index] : indexes_) {
    project(live.second.tuple, cols, projection_scratch_);
    auto& entries =
        index
            .bucket_for(JoinIndex::hash_key(projection_scratch_),
                        projection_scratch_)
            .entries;
    const auto pos = std::lower_bound(
        entries.begin(), entries.end(), live.first,
        [](const JoinIndex::Entry& a, const std::vector<Value>& key) {
          return *a.live_key < key;
        });
    assert(pos != entries.end() && pos->row == &live.second);
    entries.erase(pos);
    // The bucket itself stays, empty: slots are never vacated.
  }
}

TimeInterval& Table::open_interval(TupleRef ref) {
  auto it = rows_.find(ref);
  assert(it != rows_.end() && !it->second.empty() &&
         it->second.back().open_ended());
  return it->second.back();
}

const std::vector<TimeInterval>* Table::intervals_of(const Tuple& t) const {
  const TupleRef ref = global_store().find(t);
  if (ref == kNoTupleRef) return nullptr;
  auto it = rows_.find(ref);
  return it == rows_.end() ? nullptr : &it->second;
}

Table::InsertResult Table::insert(const Tuple& t, LogicalTime now,
                                  TupleRef ref) {
  InsertResult result;
  auto it = live_.find(key_of(t, key_scratch_));
  if (it != live_.end()) {
    if (it->second.ref == ref) return result;  // identical tuple already live
    // Key collision: displace the current holder (upsert semantics). The
    // new row has the same key, so it takes over the holder's node.
    open_interval(it->second.ref).end = now;
    unindex_live_row(*it);
    result.displaced = std::move(it->second);
    it->second = Row{t, ref};
  } else {
    it = live_.emplace(std::move(key_scratch_), Row{t, ref}).first;
    if (key_order_valid_) key_order_.insert(key_position(it->first), &*it);
  }
  rows_[ref].push_back(TimeInterval{now, kTimeInfinity});
  index_live_row(*it);
  result.inserted = true;
  return result;
}

std::optional<TupleRef> Table::remove(const Tuple& t, LogicalTime now) {
  auto it = live_.find(key_of(t, key_scratch_));
  if (it == live_.end() || !(it->second.tuple == t)) return std::nullopt;
  const TupleRef ref = it->second.ref;
  open_interval(ref).end = now;
  unindex_live_row(*it);
  if (key_order_valid_) key_order_.erase(key_position(it->first));
  live_.erase(it);
  return ref;
}

bool Table::is_live(const Tuple& t) const {
  auto it = live_.find(key_of(t, key_scratch_));
  return it != live_.end() && it->second.tuple == t;
}

bool Table::existed_at(const Tuple& t, LogicalTime at) const {
  const std::vector<TimeInterval>* intervals = intervals_of(t);
  if (intervals == nullptr) return false;
  for (const TimeInterval& iv : *intervals) {
    if (iv.contains(at)) return true;
  }
  return false;
}

std::optional<LogicalTime> Table::live_since(const Tuple& t) const {
  const std::vector<TimeInterval>* intervals = intervals_of(t);
  if (intervals == nullptr || intervals->empty()) return std::nullopt;
  const TimeInterval& last = intervals->back();
  if (!last.open_ended()) return std::nullopt;
  return last.start;
}

std::vector<TimeInterval> Table::history(const Tuple& t) const {
  const std::vector<TimeInterval>* intervals = intervals_of(t);
  return intervals == nullptr ? std::vector<TimeInterval>{} : *intervals;
}

void Table::for_each_live(const std::function<void(const Row&)>& fn) const {
  if (!key_order_valid_) {
    key_order_ = sorted_live();
    key_order_valid_ = true;
  }
  for (const LiveMap::value_type* live : key_order_) fn(live->second);
}

const Table::JoinIndex& Table::index_for(const ColumnSet& cols) const {
  assert(!cols.empty());
  assert(std::is_sorted(cols.begin(), cols.end()));
  auto index_it = indexes_.find(cols);
  if (index_it == indexes_.end()) {
    // First probe on this column set: materialize the index from the live
    // view, visited in key order so buckets come out sorted.
    index_it = indexes_.emplace(cols, JoinIndex{}).first;
    JoinIndex& index = index_it->second;
    for (const LiveMap::value_type* live : sorted_live()) {
      project(live->second.tuple, cols, projection_scratch_);
      index
          .bucket_for(JoinIndex::hash_key(projection_scratch_),
                      projection_scratch_)
          .entries.push_back(JoinIndex::Entry{&live->first, &live->second});
    }
  }
  return index_it->second;
}

void Table::for_each_live_matching(
    const ColumnSet& cols, const std::vector<Value>& probe,
    const std::function<void(const Row&)>& fn) const {
  const JoinIndex& index = index_for(cols);
  const auto* entries = index.lookup(JoinIndex::hash_key(probe), probe);
  if (entries == nullptr) return;
  for (const JoinIndex::Entry& entry : *entries) {
    fn(*entry.row);
  }
}

void Table::for_each_at(LogicalTime at,
                        const std::function<void(const Tuple&)>& fn) const {
  std::vector<TupleRef> alive;
  for (const auto& [ref, intervals] : rows_) {
    for (const TimeInterval& iv : intervals) {
      if (iv.contains(at)) {
        alive.push_back(ref);
        break;
      }
    }
  }
  const TupleStore& store = global_store();
  std::sort(alive.begin(), alive.end(), [&store](TupleRef a, TupleRef b) {
    return store.less(a, b);
  });
  for (const TupleRef ref : alive) fn(store.resolve(ref));
}

std::vector<Tuple> Table::live_snapshot() const {
  std::vector<Tuple> out;
  out.reserve(live_.size());
  // live_ is a hash map; sort by full tuple for determinism.
  for (const auto& [key, row] : live_) out.push_back(row.tuple);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace dp
