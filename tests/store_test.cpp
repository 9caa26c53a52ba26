// Tests for the interned tuple store (src/store): hash-consing edge cases,
// cross-thread interning (run under TSan in CI), and randomized round-trip
// properties per value type.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "ndlog/table.h"
#include "ndlog/tuple.h"
#include "ndlog/value.h"
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
  // Every key hashes to the same slot, so the whole table becomes one linear
  // probe cluster: correctness must come from the stored-key comparison, and
  // termination from the table never exceeding its load factor.
  JoinIndexHashGuard guard;
  Table::JoinIndex::set_hash_for_testing(
      [](const std::vector<Value>&) -> std::uint64_t { return 7; });

  TableDecl decl;
  decl.name = "flow";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);
  for (int k = 0; k < 32; ++k) {
    table.insert(Tuple("flow", {Value("n1"), Value(k), Value(k % 4)}), 1);
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
      EXPECT_EQ(entry.tuple->at(2), Value(v));
    }
  }
  // An absent key walks the full collision cluster and stops at an empty
  // slot instead of looping.
  const std::vector<Value> absent = {Value(99)};
  EXPECT_EQ(index.lookup(Table::JoinIndex::hash_key(absent), absent), nullptr);

  // Deletions shrink bucket entries in place; emptied buckets stay resident
  // (slots are never vacated) and read as no-match.
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
  // No override here: drive the index through several rehash_grow cycles and
  // check every key remains reachable through the open-addressing probe.
  TableDecl decl;
  decl.name = "flow";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);
  for (int k = 0; k < 500; ++k) {
    table.insert(Tuple("flow", {Value("n1"), Value(k), Value(k)}), 1);
  }
  const Table::JoinIndex& index = table.index_for({2});
  EXPECT_EQ(index.bucket_count(), 500u);
  EXPECT_GE(index.slot_count(), index.bucket_count());
  for (int v = 0; v < 500; ++v) {
    const std::vector<Value> key = {Value(v)};
    const auto* entries = index.lookup(Table::JoinIndex::hash_key(key), key);
    ASSERT_NE(entries, nullptr) << "key " << v;
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ(entries->front().tuple->at(1), Value(v));
  }
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
