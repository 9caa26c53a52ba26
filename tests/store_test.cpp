// Tests for the interned tuple store (src/store): hash-consing edge cases,
// cross-thread interning (run under TSan in CI), randomized round-trip
// properties per value type, and the store-backed table layout (ref-keyed
// history, hashed live view).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "ndlog/tuple.h"
#include "ndlog/value.h"
#include "runtime/table.h"
#include "store/store.h"
#include "util/rng.h"

namespace dp {
namespace {

Tuple flow(int sw, int dst) {
  return Tuple("flow", {Value("sw" + std::to_string(sw)), Value(dst)});
}

// ------------------------------------------------------ basic hash-consing --

TEST(TupleStore, EqualTuplesGetEqualRefsDistinctTuplesDistinctRefs) {
  TupleStore store;
  const TupleRef a = store.intern(flow(1, 7));
  const TupleRef b = store.intern(flow(1, 8));
  const TupleRef a2 = store.intern(flow(1, 7));
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_EQ(store.size(), 2u);
}

TEST(TupleStore, ReInterningStoresNoSecondMaterializedCopy) {
  // The exist-index duplicate-storage fix depends on this: the store holds
  // exactly one record and one canonical Tuple per distinct tuple, however
  // many layers re-intern or re-resolve it.
  TupleStore store;
  const TupleRef ref = store.intern(flow(2, 9));
  const Tuple* canonical = &store.resolve(ref);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(store.intern(flow(2, 9)), ref);
    // Same address, not merely an equal tuple: resolve() caches one copy.
    EXPECT_EQ(&store.resolve(ref), canonical);
  }
  EXPECT_EQ(store.size(), 1u);
  const TupleStore::Stats stats = store.stats();
  EXPECT_EQ(stats.tuples, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 100u);
  EXPECT_EQ(stats.resolved, 1u);
}

TEST(TupleStore, FindNeverInserts) {
  TupleStore store;
  EXPECT_EQ(store.find(flow(3, 1)), kNoTupleRef);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.values().size(), 0u);
  const TupleRef ref = store.intern(flow(3, 1));
  EXPECT_EQ(store.find(flow(3, 1)), ref);
  EXPECT_EQ(store.find(flow(3, 2)), kNoTupleRef);
  EXPECT_EQ(store.size(), 1u);
}

TEST(TupleStore, ColumnarAccessorsMatchTheMaterializedTuple) {
  TupleStore store;
  const Tuple t("route", {Value("sw4"), Value(*Ipv4::parse("10.0.0.1")),
                          Value(2), Value(0.5)});
  const TupleRef ref = store.intern(t);
  EXPECT_EQ(store.table_name(ref), "route");
  ASSERT_EQ(store.arity(ref), t.arity());
  for (std::size_t i = 0; i < t.arity(); ++i) {
    EXPECT_EQ(store.value(ref, i), t.at(i)) << "field " << i;
  }
  EXPECT_EQ(store.location(ref), "sw4");
  EXPECT_EQ(store.to_string(ref), t.to_string());
}

TEST(TupleStore, LessMatchesTupleOrdering) {
  TupleStore store;
  const std::vector<Tuple> tuples = {
      flow(1, 1), flow(1, 2), flow(2, 1),
      Tuple("arp", {Value("sw1")}),
      Tuple("flow", {Value("sw1")}),  // prefix of flow(1, *)
  };
  for (const Tuple& a : tuples) {
    for (const Tuple& b : tuples) {
      EXPECT_EQ(store.less(store.intern(a), store.intern(b)), a < b)
          << a.to_string() << " vs " << b.to_string();
    }
  }
}

// --------------------------------------------------- forced hash collisions --

std::uint64_t colliding_value_hash(const Value&) { return 42; }
std::uint64_t colliding_tuple_hash(const Tuple&) { return 7; }

TEST(TupleStore, ValueHashCollisionsStillDistinguishValues) {
  // Every value lands in one bucket chain; correctness must come from the
  // structural equality check, not the hash.
  TupleStore store(&colliding_value_hash, nullptr);
  const std::vector<Value> values = {
      Value(1), Value(2), Value(1.0), Value("1"), Value(""),
      Value(*Ipv4::parse("10.0.0.1")),
      Value(IpPrefix(*Ipv4::parse("10.0.0.0"), 8))};
  std::vector<ValueRef> refs;
  for (const Value& v : values) {
    refs.push_back(store.values().intern(v));
  }
  EXPECT_EQ(std::set<ValueRef>(refs.begin(), refs.end()).size(),
            values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(store.values().value(refs[i]), values[i]);
    EXPECT_EQ(store.values().intern(values[i]), refs[i]);
  }
}

TEST(TupleStore, TupleHashCollisionsStillDistinguishTuples) {
  TupleStore store(&colliding_value_hash, &colliding_tuple_hash);
  std::set<TupleRef> refs;
  std::vector<Tuple> tuples;
  for (int sw = 0; sw < 8; ++sw) {
    for (int dst = 0; dst < 8; ++dst) {
      tuples.push_back(flow(sw, dst));
      refs.insert(store.intern(tuples.back()));
    }
  }
  EXPECT_EQ(refs.size(), tuples.size());
  for (const Tuple& t : tuples) {
    const TupleRef ref = store.find(t);
    ASSERT_NE(ref, kNoTupleRef);
    EXPECT_EQ(store.resolve(ref), t);
  }
}

TEST(TupleStore, OneProbeSeparatesTypeTableAndArityInOneChain) {
  // Every tuple shares one hash chain, so the single structural probe alone
  // must tell apart tuples that differ only in a value's type, in the table
  // name, or in arity -- for find() before and after interning.
  TupleStore store(nullptr, &colliding_tuple_hash);
  const std::vector<Tuple> tuples = {
      Tuple("flow", {Value("sw1"), Value(1)}),
      Tuple("flow", {Value("sw1"), Value("1")}),
      Tuple("flow", {Value("sw1"), Value(1.0)}),
      Tuple("route", {Value("sw1"), Value(1)}),
      Tuple("flow", {Value("sw1")}),
      Tuple("flow", {Value("sw1"), Value(1), Value(1)}),
  };
  for (const Tuple& t : tuples) {
    EXPECT_EQ(store.find(t), kNoTupleRef) << t.to_string();
  }
  std::vector<TupleRef> refs;
  for (const Tuple& t : tuples) refs.push_back(store.intern(t));
  EXPECT_EQ(std::set<TupleRef>(refs.begin(), refs.end()).size(),
            tuples.size());
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    EXPECT_EQ(store.intern(tuples[i]), refs[i]) << tuples[i].to_string();
    EXPECT_EQ(store.find(tuples[i]), refs[i]) << tuples[i].to_string();
    EXPECT_EQ(store.resolve(refs[i]), tuples[i]);
  }
}

TEST(TupleStore, ReInterningAKnownTupleLeavesTheValuePoolAlone) {
  // A hit is decided by the tuple probe alone; the values are interned only
  // when the tuple is new.
  TupleStore store(nullptr, &colliding_tuple_hash);
  std::vector<TupleRef> refs;
  for (int dst = 0; dst < 4; ++dst) refs.push_back(store.intern(flow(1, dst)));
  const std::size_t values = store.values().size();
  const std::uint64_t value_hits = store.values().stats().hits;
  for (int round = 0; round < 3; ++round) {
    for (int dst = 0; dst < 4; ++dst) {
      EXPECT_EQ(store.intern(flow(1, dst)), refs[static_cast<std::size_t>(dst)]);
    }
  }
  EXPECT_EQ(store.values().size(), values);
  EXPECT_EQ(store.values().stats().hits, value_hits);
  EXPECT_EQ(store.stats().hits, 12u);
}

// ------------------------------------------- open-addressed chain heads --

Tuple numbered(int i) { return Tuple("flow", {Value("sw1"), Value(i)}); }

/// Spreads tuples across distinct chain keys whose low 16 bits are all zero,
/// so below 64k slots every key's probe starts at slot 0: the index is one
/// linear-probe cluster.
std::uint64_t low_entropy_tuple_hash(const Tuple& t) {
  return static_cast<std::uint64_t>(t.at(1).as_int()) << 48;
}

TEST(StoreIndex, LowEntropyHashesShareOneProbeClusterAcrossGrowths) {
  TupleStore store(nullptr, &low_entropy_tuple_hash);
  constexpr int kTuples = 200;
  std::vector<TupleRef> refs;
  std::set<std::uint64_t> slot_counts;
  for (int i = 0; i < kTuples; ++i) {
    refs.push_back(store.intern(numbered(i)));
    slot_counts.insert(store.stats().index_slots);
  }
  // 16 -> 32 -> 64 -> 128 -> 256 slots: four growths, each rehashing the
  // whole cluster from its stored keys.
  EXPECT_GE(slot_counts.size(), 4u);
  EXPECT_EQ(std::set<TupleRef>(refs.begin(), refs.end()).size(),
            static_cast<std::size_t>(kTuples));
  for (int i = 0; i < kTuples; ++i) {
    const auto at = static_cast<std::size_t>(i);
    EXPECT_EQ(store.intern(numbered(i)), refs[at]) << i;
    EXPECT_EQ(store.find(numbered(i)), refs[at]) << i;
    EXPECT_EQ(store.resolve(refs[at]), numbered(i));
  }
  // An absent key walks the whole cluster to the empty slot past its end.
  EXPECT_EQ(store.find(numbered(kTuples)), kNoTupleRef);
  EXPECT_EQ(store.find(numbered(kTuples + 4096)), kNoTupleRef);
  EXPECT_EQ(store.stats().misses, static_cast<std::uint64_t>(kTuples));
}

TEST(StoreIndex, FindOfAnAbsentTupleNeverInsertsOrGrows) {
  TupleStore store;
  // Stop one key short of the first growth (16 slots hold 11 keys at the
  // 0.7 load bound), where an insert would double the array.
  for (int i = 0; i < 11; ++i) store.intern(numbered(i));
  const TupleStore::Stats before = store.stats();
  const ValuePool::Stats values_before = store.values().stats();
  EXPECT_EQ(before.index_slots, 16u);
  for (int i = 11; i < 1000; ++i) {
    EXPECT_EQ(store.find(numbered(i)), kNoTupleRef);
  }
  const TupleStore::Stats after = store.stats();
  EXPECT_EQ(after.tuples, before.tuples);
  EXPECT_EQ(after.index_slots, before.index_slots);
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.bytes, before.bytes);
  EXPECT_EQ(store.values().stats().values, values_before.values);
  EXPECT_EQ(store.values().stats().index_slots, values_before.index_slots);
  // The next new tuple grows it.
  store.intern(numbered(11));
  EXPECT_EQ(store.stats().index_slots, 32u);
}

TEST(StoreIndex, StatsPriceTheSlotArraysExactly) {
  // Each tuple adds one int value and two value refs: the first intern
  // allocates every column's first chunk, and no later one here needs a
  // second, so bytes move only when a slot array grows -- by one 8-byte
  // slot per new slot, in the tuple index or the value index.
  static_assert(ChainHeads::kSlotBytes == 8);
  TupleStore store;
  store.intern(numbered(0));
  const auto slot_bytes = [&store] {
    return 8 * (store.stats().index_slots +
                store.values().stats().index_slots);
  };
  const std::uint64_t rest = store.stats().bytes - slot_bytes();
  std::set<std::uint64_t> slot_counts;
  for (int i = 1; i < 1500; ++i) {
    store.intern(numbered(i));
    ASSERT_EQ(store.stats().bytes - slot_bytes(), rest) << "tuple " << i;
    slot_counts.insert(store.stats().index_slots);
  }
  EXPECT_GE(slot_counts.size(), 7u);  // 16 .. 4096 slots: seven growths
}

TEST(StoreIndex, ConcurrentFindsSeeEveryPublishedRefAcrossGrowths) {
  // Writers intern fresh tuples, growing the slot array many times, while
  // readers find tuples the writers already published (which must resolve
  // to the writer's ref) and tuples nobody interns (which must stay
  // absent). Run under TSan in CI.
  TupleStore store;
  constexpr int kWriters = 3;
  constexpr int kReaders = 3;
  constexpr int kPerWriter = 3000;
  std::vector<std::vector<TupleRef>> refs(
      kWriters, std::vector<TupleRef>(kPerWriter, kNoTupleRef));
  std::vector<std::atomic<int>> published(kWriters);
  const auto tuple_of = [](int writer, int i) {
    return Tuple("flow", {Value("w" + std::to_string(writer)), Value(i)});
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        refs[w][i] = store.intern(tuple_of(w, i));
        published[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  std::atomic<int> mismatches{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng rng{static_cast<std::uint64_t>(r) + 7};
      for (int iter = 0; iter < 4000; ++iter) {
        const int w = static_cast<int>(rng.next_below(kWriters));
        const int count = published[w].load(std::memory_order_acquire);
        if (count > 0) {
          const int i = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(count)));
          if (store.find(tuple_of(w, i)) != refs[w][i]) ++mismatches;
        }
        if (store.find(tuple_of(kWriters + r, iter)) != kNoTupleRef) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kWriters * kPerWriter));
  EXPECT_GE(store.stats().index_slots, 8192u);
}

// -------------------------------------------------- cross-thread interning --

TEST(TupleStore, ConcurrentInterningAgreesOnRefs) {
  // Many threads intern an overlapping tuple universe while also resolving
  // and reading columns. Run under TSan in CI; the invariant checked here is
  // that every thread observes the same ref for the same tuple.
  TupleStore store;
  constexpr int kThreads = 8;
  constexpr int kUniverse = 64;
  std::vector<std::vector<TupleRef>> seen(kThreads,
                                          std::vector<TupleRef>(kUniverse));
  std::atomic<int> start{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int worker = 0; worker < kThreads; ++worker) {
    threads.emplace_back([&, worker] {
      start.fetch_add(1);
      while (start.load() < kThreads) {}  // rough start barrier
      Rng rng{static_cast<std::uint64_t>(worker) + 1};
      for (int iter = 0; iter < 2000; ++iter) {
        const int id = static_cast<int>(rng.next_below(kUniverse));
        const Tuple t = flow(id / 8, id % 8);
        const TupleRef ref = store.intern(t);
        seen[worker][id] = ref;
        // Lock-free read paths, racing against concurrent interns.
        EXPECT_EQ(store.resolve(ref), t);
        EXPECT_EQ(store.arity(ref), t.arity());
        EXPECT_EQ(store.table_name(ref), "flow");
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kUniverse));
  for (int id = 0; id < kUniverse; ++id) {
    const TupleRef expected = store.find(flow(id / 8, id % 8));
    ASSERT_NE(expected, kNoTupleRef);
    for (int worker = 0; worker < kThreads; ++worker) {
      EXPECT_EQ(seen[worker][id], expected)
          << "worker " << worker << ", tuple " << id;
    }
  }
}

// ------------------------------------- open-addressing join-index probing --

/// Resets the JoinIndex hash override even if the test fails mid-way.
struct JoinIndexHashGuard {
  ~JoinIndexHashGuard() { Table::JoinIndex::set_hash_for_testing(nullptr); }
};

TEST(JoinIndexOpenAddressing, ForcedHashCollisionsStillSeparateKeys) {
  // Every key hashes alike, so all buckets share one chain behind one slot:
  // correctness must come from the stored-key comparison.
  JoinIndexHashGuard guard;
  Table::JoinIndex::set_hash_for_testing(
      [](const std::vector<Value>&) -> std::uint64_t { return 7; });

  TableDecl decl;
  decl.name = "flow";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);
  for (int k = 0; k < 32; ++k) {
    const Tuple t("flow", {Value("n1"), Value(k), Value(k % 4)});
    table.insert(t, 1, intern_tuple(t));
  }
  const Table::JoinIndex& index = table.index_for({2});
  EXPECT_EQ(index.bucket_count(), 4u);
  for (int v = 0; v < 4; ++v) {
    const std::vector<Value> key = {Value(v)};
    const std::uint64_t hash = Table::JoinIndex::hash_key(key);
    EXPECT_EQ(hash, 7u);
    const auto* entries = index.lookup(hash, key);
    ASSERT_NE(entries, nullptr) << "key " << v;
    EXPECT_EQ(entries->size(), 8u);
    for (const Table::JoinIndex::Entry& entry : *entries) {
      EXPECT_EQ(entry.row->tuple.at(2), Value(v));
    }
  }
  // An absent key walks the full collision chain and stops at its end.
  const std::vector<Value> absent = {Value(99)};
  EXPECT_EQ(index.lookup(Table::JoinIndex::hash_key(absent), absent), nullptr);

  // Deletions shrink bucket entries in place; emptied buckets stay resident
  // (slots and chains are never vacated) and read as no-match.
  for (int k = 0; k < 32; k += 4) {
    ASSERT_TRUE(
        table.remove(Tuple("flow", {Value("n1"), Value(k), Value(0)}), 2));
  }
  const std::vector<Value> zero = {Value(0)};
  EXPECT_EQ(index.lookup(Table::JoinIndex::hash_key(zero), zero), nullptr);
  const std::vector<Value> one = {Value(1)};
  const auto* ones = index.lookup(Table::JoinIndex::hash_key(one), one);
  ASSERT_NE(ones, nullptr);
  EXPECT_EQ(ones->size(), 8u);
}

TEST(JoinIndexOpenAddressing, GrowthRehashesWithoutLosingEntries) {
  // No override here: drive the index through several slot-array growths
  // and check every key remains reachable through the open-addressing probe.
  TableDecl decl;
  decl.name = "flow";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);
  for (int k = 0; k < 500; ++k) {
    const Tuple t("flow", {Value("n1"), Value(k), Value(k)});
    table.insert(t, 1, intern_tuple(t));
  }
  const Table::JoinIndex& index = table.index_for({2});
  EXPECT_EQ(index.bucket_count(), 500u);
  EXPECT_GE(index.slot_count(), index.bucket_count());
  for (int v = 0; v < 500; ++v) {
    const std::vector<Value> key = {Value(v)};
    const auto* entries = index.lookup(Table::JoinIndex::hash_key(key), key);
    ASSERT_NE(entries, nullptr) << "key " << v;
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ(entries->front().row->tuple.at(1), Value(v));
  }
}

// ------------------------------------------------ ref-keyed table layout --

TEST(TableLayout, ForEachAtYieldsStructuralOrderWhateverTheRefOrder) {
  // The history is a hash map from ref to intervals, so for_each_at must
  // sort what it finds. Interning in reverse structural order makes ref
  // order the opposite of the order DiffProv's state scans expect; the
  // table name is this test's own, so no other test interned these tuples
  // first.
  TableDecl decl;
  decl.name = "reverseRefFlow";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);
  std::vector<Tuple> tuples;
  for (int k = 0; k < 40; ++k) {
    tuples.push_back(Tuple("reverseRefFlow",
                           {Value("n" + std::to_string(k % 3)), Value(k),
                            Value(100 - k)}));
  }
  std::vector<Tuple> sorted = tuples;
  std::sort(sorted.begin(), sorted.end());
  for (auto it = sorted.rbegin(); it != sorted.rend(); ++it) {
    table.insert(*it, 10, intern_tuple(*it));
  }
  ASSERT_GT(global_store().find(sorted.front()),
            global_store().find(sorted.back()));
  // Half of them die before t=20; the scan at 15 still sees all, at 25 the
  // survivors, each in structural order.
  for (std::size_t i = 0; i < sorted.size(); i += 2) {
    ASSERT_TRUE(table.remove(sorted[i], 20));
  }
  std::vector<Tuple> at15;
  table.for_each_at(15, [&](const Tuple& t) { at15.push_back(t); });
  EXPECT_EQ(at15, sorted);
  std::vector<Tuple> at25;
  table.for_each_at(25, [&](const Tuple& t) { at25.push_back(t); });
  std::vector<Tuple> survivors;
  for (std::size_t i = 1; i < sorted.size(); i += 2) {
    survivors.push_back(sorted[i]);
  }
  EXPECT_EQ(at25, survivors);
}

TEST(TableLayout, ChurnUnderAConstantKeyHashKeepsHistoryAndLiveViewAgreeing) {
  // Every key projection hashes alike, so the live view and the join index
  // each hold all rows in one collision chain: inserts, upsert
  // displacements and removes must still find exactly their own row. A
  // plain ordered model of both maps checks every step.
  JoinIndexHashGuard guard;
  Table::JoinIndex::set_hash_for_testing(
      [](const std::vector<Value>&) -> std::uint64_t { return 7; });

  const TupleStore& store = global_store();
  TableDecl decl;
  decl.name = "churnCfg";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);
  ASSERT_EQ(table.index_for({2}).bucket_count(), 0u);  // maintained from now

  std::vector<Tuple> universe;
  for (int i = 0; i < 24; ++i) {
    universe.push_back(Tuple("churnCfg", {Value("n" + std::to_string(i % 2)),
                                          Value(i % 6), Value(i % 4)}));
  }
  std::map<std::vector<Value>, Tuple> live_model;  // key -> live tuple
  std::map<Tuple, std::vector<TimeInterval>> history_model;
  Rng rng(2024);
  LogicalTime now = 0;
  for (int step = 0; step < 600; ++step) {
    now += 1 + static_cast<LogicalTime>(rng.next_below(3));
    const Tuple& t = universe[rng.next_below(universe.size())];
    const TupleRef ref = intern_tuple(t);
    const std::vector<Value> key = table.key_of(t);
    auto live = live_model.find(key);
    if (rng.next_bool(0.6)) {
      const Table::InsertResult result = table.insert(t, now, ref);
      if (live != live_model.end() && live->second == t) {
        EXPECT_FALSE(result.inserted) << step;
        EXPECT_FALSE(result.displaced.has_value()) << step;
        continue;
      }
      EXPECT_TRUE(result.inserted) << step;
      if (live != live_model.end()) {
        ASSERT_TRUE(result.displaced.has_value()) << step;
        EXPECT_EQ(result.displaced->tuple, live->second) << step;
        EXPECT_EQ(result.displaced->ref, store.find(live->second)) << step;
        history_model[live->second].back().end = now;
      } else {
        EXPECT_FALSE(result.displaced.has_value()) << step;
      }
      live_model[key] = t;
      history_model[t].push_back(TimeInterval{now, kTimeInfinity});
    } else {
      const std::optional<TupleRef> removed = table.remove(t, now);
      if (live == live_model.end() || !(live->second == t)) {
        EXPECT_EQ(removed, std::nullopt) << step;
        continue;
      }
      EXPECT_EQ(removed, std::optional<TupleRef>(ref)) << step;
      history_model[t].back().end = now;
      live_model.erase(live);
    }

    // The live view: same rows, in key order, each with its own ref.
    std::vector<Tuple> expected_live;
    for (const auto& [k, tuple] : live_model) expected_live.push_back(tuple);
    std::vector<Tuple> actual_live;
    table.for_each_live([&](const Table::Row& row) {
      EXPECT_EQ(row.ref, store.find(row.tuple)) << step;
      actual_live.push_back(row.tuple);
    });
    ASSERT_EQ(actual_live, expected_live) << step;
    // The history: every tuple's intervals, liveness and start.
    for (const Tuple& u : universe) {
      const auto model = history_model.find(u);
      const std::vector<TimeInterval> expected =
          model == history_model.end() ? std::vector<TimeInterval>{}
                                       : model->second;
      ASSERT_EQ(table.history(u), expected) << step << " " << u.to_string();
      const bool is_live = !expected.empty() && expected.back().open_ended();
      EXPECT_EQ(table.is_live(u), is_live) << step;
      EXPECT_EQ(table.live_since(u).has_value(), is_live) << step;
    }
    // The maintained index: each payload's bucket is the filtered scan.
    for (int payload = 0; payload < 4; ++payload) {
      std::vector<Tuple> filtered;
      for (const Tuple& tuple : expected_live) {
        if (tuple.at(2) == Value(payload)) filtered.push_back(tuple);
      }
      std::vector<Tuple> probed;
      table.for_each_live_matching(
          {2}, {Value(payload)},
          [&](const Table::Row& row) { probed.push_back(row.tuple); });
      ASSERT_EQ(probed, filtered) << step << " payload " << payload;
    }
  }
  EXPECT_EQ(table.live_count(), live_model.size());
  EXPECT_EQ(table.total_count(), history_model.size());
}

// -------------------------------------------- randomized round-trip per type --

class StoreRoundTrip : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};

  Value random_value_of(ValueType type) {
    switch (type) {
      case ValueType::kInt:
        return Value(rng.next_in(-1'000'000, 1'000'000));
      case ValueType::kDouble:
        return Value(double(rng.next_in(-100000, 100000)) / 16.0);
      case ValueType::kString: {
        std::string s;
        const std::size_t len = rng.next_below(12);
        for (std::size_t i = 0; i < len; ++i) {
          s += static_cast<char>('a' + rng.next_below(26));
        }
        return Value(std::move(s));
      }
      case ValueType::kIp:
        return Value(Ipv4(static_cast<std::uint32_t>(rng.next_u64())));
      case ValueType::kPrefix:
        return Value(IpPrefix(Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
                              static_cast<int>(rng.next_below(33))));
    }
    return Value(0);
  }
};

TEST_P(StoreRoundTrip, TupleToRefToTupleIsIdentityForEveryValueType) {
  TupleStore store;
  const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                              ValueType::kString, ValueType::kIp,
                              ValueType::kPrefix};
  for (ValueType type : kTypes) {
    for (int i = 0; i < 100; ++i) {
      std::vector<Value> values;
      values.emplace_back("n" + std::to_string(rng.next_below(4)));
      const std::size_t arity = 1 + rng.next_below(4);
      for (std::size_t j = 1; j < arity; ++j) {
        values.push_back(random_value_of(type));
      }
      const Tuple t("t" + std::to_string(rng.next_below(3)),
                    std::move(values));
      const TupleRef ref = store.intern(t);
      EXPECT_EQ(store.resolve(ref), t)
          << "type " << value_type_name(type) << ": " << t.to_string();
      EXPECT_EQ(store.intern(t), ref);
      EXPECT_EQ(store.resolve(ref).to_string(), t.to_string());
    }
  }
  // Interning everything again must be pure hits: no growth anywhere.
  const std::size_t tuples = store.size();
  const std::size_t values = store.values().size();
  const TupleStore::Stats before = store.stats();
  EXPECT_EQ(store.size(), tuples);
  EXPECT_EQ(store.values().size(), values);
  EXPECT_EQ(before.tuples, tuples);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRoundTrip,
                         ::testing::Values(1, 2026, 0xd1ff9u));

// ----------------------------------------------------------------- metrics --

TEST(TupleStore, StatsAndMetricsReflectInterning) {
  TupleStore store;
  store.intern(flow(1, 1));
  store.intern(flow(1, 1));
  store.intern(flow(1, 2));
  const TupleStore::Stats stats = store.stats();
  EXPECT_EQ(stats.tuples, 2u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_GT(stats.hit_rate(), 0.0);

  obs::MetricsRegistry registry;
  store.publish_metrics(registry);
  EXPECT_EQ(registry.gauge("dp.store.tuples").value(), 2);
  EXPECT_EQ(registry.gauge("dp.store.values").value(),
            static_cast<std::int64_t>(store.values().size()));
  EXPECT_GT(registry.gauge("dp.store.bytes").value(), 0);
  EXPECT_EQ(registry.counter("dp.store.intern_misses").value(), 2u);
  EXPECT_EQ(registry.counter("dp.store.intern_hits").value(), 1u);
}

TEST(NamePool, InterningDeduplicatesAndResolvesStably) {
  NamePool pool;
  const NameRef a = pool.intern("flow");
  const NameRef b = pool.intern("route");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.intern("flow"), a);
  EXPECT_EQ(pool.name(a), "flow");
  EXPECT_EQ(pool.name(kNoName), "");
  EXPECT_EQ(pool.size(), 2u);
}

}  // namespace
}  // namespace dp
