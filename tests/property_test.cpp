// Property-based tests: parameterized sweeps over randomized (seeded,
// deterministic) inputs, checking invariants rather than examples.
//
// Each suite is instantiated over a range of RNG seeds; a failure message
// includes the seed, which reproduces the case deterministically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "diffprov/diffprov.h"
#include "diffprov/formula.h"
#include "diffprov/seed.h"
#include "diffprov/treediff.h"
#include "ndlog/functions.h"
#include "ndlog/parser.h"
#include "replay/event_log.h"
#include "runtime/table.h"
#include "util/rng.h"

namespace dp {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Rng rng{GetParam()};

  Value random_value() {
    switch (rng.next_below(5)) {
      case 0: return Value(rng.next_in(-1000, 1000));
      case 1: return Value(double(rng.next_in(-100, 100)) / 4.0);
      case 2: return Value("s" + std::to_string(rng.next_below(50)));
      case 3:
        return Value(Ipv4(static_cast<std::uint32_t>(rng.next_u64())));
      default:
        return Value(IpPrefix(
            Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
            static_cast<int>(rng.next_below(33))));
    }
  }

  Tuple random_tuple(std::size_t max_arity = 5) {
    std::vector<Value> values;
    values.emplace_back("n" + std::to_string(rng.next_below(4)));
    const std::size_t arity = 1 + rng.next_below(max_arity);
    for (std::size_t i = 1; i < arity; ++i) values.push_back(random_value());
    return Tuple("t" + std::to_string(rng.next_below(3)), std::move(values));
  }
};

// ----------------------------------------------------------- value order --

class ValueProperties : public Seeded {};

TEST_P(ValueProperties, OrderingIsATotalOrder) {
  for (int i = 0; i < 200; ++i) {
    const Value a = random_value();
    const Value b = random_value();
    const int relations = int(a < b) + int(b < a) + int(a == b);
    EXPECT_EQ(relations, 1) << a.to_string() << " vs " << b.to_string();
    EXPECT_FALSE(a < a);
    if (a == b) {
      EXPECT_EQ(a.hash(), b.hash());
    }
  }
}

TEST_P(ValueProperties, OrderingIsTransitive) {
  for (int i = 0; i < 100; ++i) {
    std::vector<Value> values = {random_value(), random_value(),
                                 random_value()};
    std::sort(values.begin(), values.end(),
              [](const Value& x, const Value& y) { return x < y; });
    EXPECT_FALSE(values[1] < values[0]);
    EXPECT_FALSE(values[2] < values[1]);
    EXPECT_FALSE(values[2] < values[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ValueProperties, ::testing::Range<std::uint64_t>(1, 9));

// -------------------------------------------------------------- prefixes --

class PrefixProperties : public Seeded {};

TEST_P(PrefixProperties, BaseIsContainedAndNormalizationIsIdempotent) {
  for (int i = 0; i < 300; ++i) {
    const Ipv4 addr(static_cast<std::uint32_t>(rng.next_u64()));
    const int length = static_cast<int>(rng.next_below(33));
    const IpPrefix p(addr, length);
    EXPECT_TRUE(p.contains(p.base()));
    EXPECT_TRUE(p.contains(addr));  // normalization keeps the address inside
    EXPECT_EQ(IpPrefix(p.base(), p.length()), p);
    EXPECT_TRUE(p.covers(p));
    // Parsing its rendering round-trips.
    EXPECT_EQ(*IpPrefix::parse(p.to_string()), p);
  }
}

TEST_P(PrefixProperties, CoversIsConsistentWithContains) {
  for (int i = 0; i < 300; ++i) {
    const IpPrefix a(Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
                     static_cast<int>(rng.next_below(25)));
    const IpPrefix b(Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
                     static_cast<int>(rng.next_below(33)));
    if (a.covers(b)) {
      // Any address in b is in a; spot-check with b's base and a random
      // host inside b.
      EXPECT_TRUE(a.contains(b.base()));
      const std::uint32_t host =
          b.length() >= 32
              ? 0
              : static_cast<std::uint32_t>(rng.next_below(
                    1ull << (32 - static_cast<unsigned>(b.length()))));
      EXPECT_TRUE(a.contains(Ipv4(b.base().value() | host)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PrefixProperties, ::testing::Range<std::uint64_t>(1, 9));

// ----------------------------------------------------------------- table --

class TableProperties : public Seeded {};

TEST_P(TableProperties, IntervalsAreOrderedDisjointAndKeyUnique) {
  TableDecl decl;
  decl.name = "t0";
  decl.arity = 3;
  decl.key_columns = {0, 1};
  Table table(decl);

  // Random insert/remove churn over a small tuple universe.
  std::vector<Tuple> universe;
  for (int i = 0; i < 12; ++i) {
    universe.push_back(Tuple(
        "t0", {Value("n" + std::to_string(i % 2)), Value(std::int64_t(i % 4)),
               Value(std::int64_t(i))}));
  }
  LogicalTime now = 0;
  for (int step = 0; step < 400; ++step) {
    now += 1 + LogicalTime(rng.next_below(5));
    const Tuple& t = universe[rng.next_below(universe.size())];
    if (rng.next_bool(0.6)) {
      table.insert(t, now, intern_tuple(t));
    } else {
      table.remove(t, now);
    }
  }

  // Invariant 1: per-tuple interval histories are ordered and disjoint.
  for (const Tuple& t : universe) {
    const auto history = table.history(t);
    for (std::size_t i = 0; i < history.size(); ++i) {
      EXPECT_LE(history[i].start,
                history[i].open_ended() ? kTimeInfinity : history[i].end);
      if (i > 0) {
        EXPECT_FALSE(history[i - 1].open_ended());
        EXPECT_LE(history[i - 1].end, history[i].start);
      }
    }
  }
  // Invariant 2: at most one live tuple per key, and live tuples are
  // exactly those whose last interval is open.
  std::map<std::vector<Value>, int> live_per_key;
  table.for_each_live([&](const Table::Row& row) {
    const Tuple& t = row.tuple;
    ++live_per_key[table.key_of(t)];
    const auto history = table.history(t);
    ASSERT_FALSE(history.empty());
    EXPECT_TRUE(history.back().open_ended());
  });
  for (const auto& [key, count] : live_per_key) {
    EXPECT_EQ(count, 1);
  }
  // Invariant 3: existed_at agrees with the recorded history.
  for (const Tuple& t : universe) {
    for (const TimeInterval& iv : table.history(t)) {
      EXPECT_TRUE(table.existed_at(t, iv.start));
      if (!iv.open_ended()) {
        EXPECT_FALSE(table.existed_at(t, iv.end));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TableProperties, ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------- event log --

class EventLogProperties : public Seeded {};

TEST_P(EventLogProperties, BinaryAndTextRoundTripsPreserveEverything) {
  EventLog log;
  LogicalTime now = 0;
  for (int i = 0; i < 60; ++i) {
    now += LogicalTime(rng.next_below(100));
    Tuple t = random_tuple();
    if (rng.next_bool(0.8)) {
      log.append_insert(std::move(t), now);
    } else {
      log.append_delete(std::move(t), now);
    }
  }
  // Binary round-trip: identical records and identical byte size.
  std::ostringstream out;
  log.serialize(out);
  EXPECT_EQ(out.str().size(), log.byte_size());
  std::istringstream in(out.str());
  const EventLog binary = EventLog::deserialize(in);
  ASSERT_EQ(binary.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(binary.records()[i], log.records()[i]);
  }
  // Text round-trip.
  const EventLog text = EventLog::from_text(log.to_text());
  ASSERT_EQ(text.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(text.records()[i], log.records()[i]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EventLogProperties, ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ inversion --

class InversionProperties : public Seeded {};

TEST_P(InversionProperties, AffineChainsInvertExactly) {
  // Build a random invertible chain around X: ((X op c1) op c2) ... with
  // ops from {+, -, *, ^} (multiplication uses the inverse direction
  // "X * c" so integer division divides exactly after inversion).
  for (int trial = 0; trial < 50; ++trial) {
    const std::int64_t x = rng.next_in(-50, 50);
    ExprPtr expr = Expr::make_var("X");
    Bindings env_check{{"X", Value(x)}};
    const int depth = 1 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < depth; ++i) {
      const std::int64_t c = rng.next_in(1, 9);
      switch (rng.next_below(4)) {
        case 0:
          expr = Expr::make_binary(BinOp::kAdd, expr,
                                   Expr::make_const(Value(c)));
          break;
        case 1:
          expr = Expr::make_binary(BinOp::kSub, expr,
                                   Expr::make_const(Value(c)));
          break;
        case 2:
          expr = Expr::make_binary(BinOp::kMul, expr,
                                   Expr::make_const(Value(c)));
          break;
        default:
          expr = Expr::make_binary(BinOp::kBitXor, expr,
                                   Expr::make_const(Value(c)));
          break;
      }
    }
    const Value target = eval_expr(*expr, env_check);
    const auto inverted = invert_expr_for_var(
        *expr, "X", Formula::make_const(target), {});
    ASSERT_TRUE(inverted.has_value()) << expr->to_string();
    EXPECT_EQ((*inverted)->eval({}).as_int(), x)
        << expr->to_string() << " target " << target.to_string();
  }
}

TEST_P(InversionProperties, PrefixSolverWidensMinimally) {
  for (int trial = 0; trial < 100; ++trial) {
    const Ipv4 ip(static_cast<std::uint32_t>(rng.next_u64()));
    const IpPrefix current(
        Ipv4(static_cast<std::uint32_t>(rng.next_u64())),
        8 + static_cast<int>(rng.next_below(25)));
    const BuiltinInfo* info = FunctionRegistry::instance().find("f_matches");
    const auto solved =
        info->solver(1, {Value(ip), Value(current)}, Value(1));
    ASSERT_TRUE(solved.has_value());
    const IpPrefix widened = solved->as_prefix();
    // Soundness: the result covers the address...
    EXPECT_TRUE(widened.contains(ip));
    // ... derives from the current base ...
    EXPECT_TRUE(widened.covers(IpPrefix(current.base(), current.length())));
    // ... and is minimal: one bit narrower no longer contains the address
    // (unless it already matched at the original length).
    if (widened.length() < current.length()) {
      const IpPrefix narrower(current.base(), widened.length() + 1);
      EXPECT_FALSE(narrower.contains(ip));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, InversionProperties, ::testing::Range<std::uint64_t>(1, 9));

// ----------------------------------------------- engine + provenance ----

constexpr const char* kPropertyNetwork = R"(
  table packet(3) base immutable event.
  table flowEntry(4) keys(0, 2) base mutable.
  table packetAt(3) derived event.
  table fwd(4) derived event.
  table delivered(3) derived.
  rule r0 packetAt(@Sw, Pkt, Dst) :- packet(@Sw, Pkt, Dst).
  rule r1 argmax Prio
    fwd(@Sw, Pkt, Dst, Next) :-
      packetAt(@Sw, Pkt, Dst), flowEntry(@Sw, Prio, Prefix, Next),
      f_matches(Dst, Prefix) == 1.
  rule r2 packetAt(@Next, Pkt, Dst) :- fwd(@Sw, Pkt, Dst, Next),
      f_strlen(Next) > 2.
  rule r3 delivered(@Next, Pkt, Dst) :- fwd(@Sw, Pkt, Dst, Next),
      f_strlen(Next) <= 2.
)";

class EngineProperties : public Seeded {
 protected:
  /// Builds a random loop-free forwarding chain plus noise entries, and a
  /// packet workload; returns the log.
  EventLog random_network(int* delivered_hint) {
    EventLog log;
    // A chain sws0 -> sws1 -> ... -> host, plus random more-specific routes
    // that shortcut to a host.
    const int chain = 2 + static_cast<int>(rng.next_below(4));
    for (int i = 0; i < chain; ++i) {
      const std::string self = "sws" + std::to_string(i);
      const std::string next =
          i + 1 == chain ? "h1" : "sws" + std::to_string(i + 1);
      log.append_insert(
          Tuple("flowEntry", {Value(self), Value(1),
                              Value(*IpPrefix::parse("0.0.0.0/0")),
                              Value(next)}),
          0);
      if (rng.next_bool(0.5)) {
        log.append_insert(
            Tuple("flowEntry",
                  {Value(self), Value(10 + i),
                   Value(IpPrefix(
                       Ipv4(10, std::uint8_t(rng.next_below(4)), 0, 0), 16)),
                   Value("h2")}),
            0);
      }
    }
    const int packets = 20 + static_cast<int>(rng.next_below(30));
    *delivered_hint = packets;
    for (int i = 0; i < packets; ++i) {
      log.append_insert(
          Tuple("packet",
                {Value("sws0"), Value(std::int64_t(i)),
                 Value(Ipv4(10, std::uint8_t(rng.next_below(8)),
                            std::uint8_t(rng.next_below(256)), 1))}),
          100 + 10 * i);
    }
    return log;
  }
};

TEST_P(EngineProperties, ReplayIsBitwiseDeterministic) {
  int packets = 0;
  const EventLog log = random_network(&packets);
  const Program program = parse_program(kPropertyNetwork);
  LogReplayProvider provider(program, Topology{}, log);
  const BadRun a = provider.replay_bad({});
  const BadRun b = provider.replay_bad({});
  EXPECT_EQ(a.graph->size(), b.graph->size());
  // Every tuple in a's graph appears with the same intervals in b's.
  a.graph->for_each_tuple([&](const Tuple& t, const auto& exists) {
    EXPECT_EQ(b.graph->exists_of(t).size(), exists.size())
        << t.to_string();
  });
}

TEST_P(EngineProperties, EveryPacketIsDeliveredExactlyOnce) {
  // The chain is loop-free and ends at a host, and shortcut entries also
  // end at a host, so every packet must be delivered exactly once.
  int packets = 0;
  const EventLog log = random_network(&packets);
  const Program program = parse_program(kPropertyNetwork);
  LogReplayProvider provider(program, Topology{}, log);
  const BadRun run = provider.replay_bad({});
  int delivered = 0;
  run.graph->for_each_tuple([&](const Tuple& t, const auto&) {
    if (t.table() == "delivered") ++delivered;
  });
  EXPECT_EQ(delivered, packets);
}

TEST_P(EngineProperties, ProvenanceTreesAreWellFormed) {
  int packets = 0;
  const EventLog log = random_network(&packets);
  const Program program = parse_program(kPropertyNetwork);
  LogReplayProvider provider(program, Topology{}, log);
  const BadRun run = provider.replay_bad({});
  int checked = 0;
  run.graph->for_each_tuple([&](const Tuple& t, const auto& exists) {
    if (t.table() != "delivered" || checked >= 5) return;
    ++checked;
    const ProvTree tree = ProvTree::project(*run.graph, exists.back());
    // Structure: the root is an EXIST of the queried tuple; the seed is an
    // INSERT of a packet; the spine is non-empty; every DERIVE's rule is in
    // the program.
    EXPECT_EQ(tree.vertex_of(tree.root()).kind, VertexKind::kExist);
    EXPECT_EQ(tree.vertex_of(tree.root()).tuple(), t);
    const auto seed = find_seed(tree);
    ASSERT_TRUE(seed.has_value());
    EXPECT_EQ(seed->tuple.table(), "packet");
    EXPECT_FALSE(spine_of(tree, *seed).empty());
    tree.visit([&](ProvTree::NodeIndex i) {
      const Vertex& v = tree.vertex_of(i);
      if (v.kind == VertexKind::kDerive) {
        EXPECT_NE(program.find_rule(v.rule()), nullptr) << v.rule();
        // A derivation happens while (or right after) its children exist.
        for (const auto child : tree.node(i).children) {
          EXPECT_LE(tree.vertex_of(child).interval.start, v.time);
        }
      }
    });
  });
  EXPECT_GT(checked, 0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EngineProperties, ::testing::Range<std::uint64_t>(1, 13));

// --------------------------------------------------- diffprov end-to-end --

class DiffProvProperties : public Seeded {};

// Randomized SDN1-shaped faults: a route intended for a /L source block is
// written /L+1, so the sibling half falls through to a default route.
// DiffProv must always return exactly one change that widens the prefix
// back, regardless of where the subnet sits.
TEST_P(DiffProvProperties, AlwaysPinpointsTheNarrowedPrefix) {
  const Program program = parse_program(kPropertyNetwork);
  for (int trial = 0; trial < 4; ++trial) {
    const int intended_len = 12 + static_cast<int>(rng.next_below(16));
    const IpPrefix intended(
        Ipv4(static_cast<std::uint32_t>(rng.next_u64())), intended_len);
    const IpPrefix buggy(intended.base(), intended_len + 1);
    // An address inside the intended block but outside the buggy one:
    // flip the bit right below the intended length.
    const std::uint32_t flip = 1u << (31 - intended_len);
    const Ipv4 bad_src(buggy.base().value() | flip);
    const Ipv4 good_src(buggy.base().value() | 1u);

    EventLog log;
    auto entry = [&](const std::string& sw, int prio, const IpPrefix& p,
                     const std::string& next) {
      log.append_insert(Tuple("flowEntry", {Value(sw), Value(prio), Value(p),
                                            Value(next)}),
                        0);
    };
    entry("sws0", 100, buggy, "sws1");
    entry("sws0", 1, *IpPrefix::parse("0.0.0.0/0"), "h2");
    entry("sws1", 1, *IpPrefix::parse("0.0.0.0/0"), "h1");
    log.append_insert(
        Tuple("packet", {Value("sws0"), Value(1), Value(good_src)}), 100);
    log.append_insert(
        Tuple("packet", {Value("sws0"), Value(2), Value(bad_src)}), 200);

    LogReplayProvider query(program, Topology{}, log);
    const BadRun run = query.replay_bad({});
    const auto good = locate_tree(
        *run.graph, Tuple("delivered", {Value("h1"), Value(1),
                                        Value(good_src)}));
    ASSERT_TRUE(good.has_value()) << intended.to_string();
    LogReplayProvider provider(program, Topology{}, log);
    DiffProv diffprov(program, provider);
    const DiffProvResult result = diffprov.diagnose(
        *good, Tuple("delivered", {Value("h2"), Value(2), Value(bad_src)}));
    ASSERT_TRUE(result.ok())
        << intended.to_string() << ": " << result.to_string();
    ASSERT_EQ(result.changes.size(), 1u) << result.to_string();
    ASSERT_TRUE(result.changes[0].after.has_value());
    const IpPrefix fixed = result.changes[0].after->at(2).as_prefix();
    EXPECT_TRUE(fixed.contains(bad_src)) << fixed.to_string();
    EXPECT_TRUE(fixed.contains(good_src)) << fixed.to_string();
    EXPECT_EQ(fixed.length(), intended_len) << "not minimal";
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DiffProvProperties, ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------------------ tree diff --

class TreeDiffProperties : public Seeded {};

TEST_P(TreeDiffProperties, DiffAndEditDistanceInvariants) {
  const Program program = parse_program(kPropertyNetwork);
  // Build two related trees from one random run.
  EventLog log;
  log.append_insert(Tuple("flowEntry", {Value("sws0"), Value(1),
                                        Value(*IpPrefix::parse("0.0.0.0/0")),
                                        Value("h1")}),
                    0);
  const int n = 3 + static_cast<int>(rng.next_below(4));
  for (int i = 0; i < n; ++i) {
    log.append_insert(
        Tuple("packet", {Value("sws0"), Value(std::int64_t(i)),
                         Value(Ipv4(10, 0, 0, std::uint8_t(i + 1)))}),
        100 + 10 * i);
  }
  LogReplayProvider provider(program, Topology{}, log);
  const BadRun run = provider.replay_bad({});
  std::vector<ProvTree> trees;
  run.graph->for_each_tuple([&](const Tuple& t, const auto& exists) {
    if (t.table() == "delivered") {
      trees.push_back(ProvTree::project(*run.graph, exists.back()));
    }
  });
  ASSERT_GE(trees.size(), 2u);
  for (std::size_t i = 0; i + 1 < trees.size(); ++i) {
    const ProvTree& a = trees[i];
    const ProvTree& b = trees[i + 1];
    // Identity.
    EXPECT_EQ(plain_tree_diff(a, a).diff_size(), 0u);
    EXPECT_EQ(tree_edit_distance(a, a), 0u);
    // Symmetry of the diff counts.
    const TreeDiffStats ab = plain_tree_diff(a, b);
    const TreeDiffStats ba = plain_tree_diff(b, a);
    EXPECT_EQ(ab.only_in_good, ba.only_in_bad);
    EXPECT_EQ(ab.only_in_bad, ba.only_in_good);
    EXPECT_EQ(ab.common, ba.common);
    // Bounds: the edit distance is at most delete-all + insert-all, and at
    // least the size difference.
    const std::size_t distance = tree_edit_distance(a, b);
    EXPECT_LE(distance, a.size() + b.size());
    EXPECT_GE(distance + std::min(a.size(), b.size()),
              std::max(a.size(), b.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreeDiffProperties, ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace dp
