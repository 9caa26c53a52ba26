// Tests for engine-level aggregation (`agg count` / `agg sum` rules): the
// running value, displacement of the previous aggregate, the provenance
// contribution chain, and validation of malformed aggregate rules.
#include <gtest/gtest.h>

#include "diffprov/seed.h"
#include "ndlog/parser.h"
#include "provenance/recorder.h"
#include "runtime/engine.h"

namespace dp {
namespace {

constexpr const char* kCountProgram = R"(
  table hit(3) base immutable event.      // hit(@N, Key, Weight)
  table hits(3) derived keys(0, 1).       // hits(@N, Key, Total)
  table weight(3) derived keys(0, 1).     // weight(@N, Key, Sum)
  rule c agg count Total hits(@N, K, Total) :- hit(@N, K, W).
  rule s agg sum Sum W weight(@N, K, Sum) :- hit(@N, K, W).
)";

TEST(Aggregate, CountAndSumAccumulatePerGroup) {
  Engine engine((parse_program(kCountProgram)));
  LogicalTime t = 0;
  for (const auto& [key, weight] :
       std::vector<std::pair<const char*, int>>{
           {"a", 5}, {"a", 7}, {"b", 1}, {"a", 2}, {"b", 10}}) {
    engine.schedule_insert(Tuple("hit", {Value("n"), Value(key),
                                         Value(weight)}),
                           t += 10);
  }
  engine.run();
  EXPECT_TRUE(engine.is_live(Tuple("hits", {Value("n"), Value("a"),
                                            Value(3)})));
  EXPECT_TRUE(engine.is_live(Tuple("hits", {Value("n"), Value("b"),
                                            Value(2)})));
  EXPECT_TRUE(engine.is_live(Tuple("weight", {Value("n"), Value("a"),
                                              Value(14)})));
  EXPECT_TRUE(engine.is_live(Tuple("weight", {Value("n"), Value("b"),
                                              Value(11)})));
  // Intermediate values were displaced, not accumulated as extra rows.
  EXPECT_EQ(engine.live_tuples("hits").size(), 2u);
  // ... but their temporal history remains queryable.
  EXPECT_TRUE(engine.existed_at(Tuple("hits", {Value("n"), Value("a"),
                                               Value(1)}),
                                15));
}

TEST(Aggregate, ProvenanceFormsAContributionChain) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kCountProgram)));
  engine.add_observer(&recorder);
  for (int i = 0; i < 4; ++i) {
    engine.schedule_insert(
        Tuple("hit", {Value("n"), Value("a"), Value(1)}),
        10 * (i + 1));
  }
  engine.run();
  const Tuple final_count("hits", {Value("n"), Value("a"), Value(4)});
  const auto exist = recorder.graph().exist_at(final_count, engine.now());
  ASSERT_TRUE(exist.has_value());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);
  // Chain: count(4) <- [hit, count(3)] <- ... <- count(1) <- [hit]. Each
  // link adds EXIST/APPEAR/DERIVE for the aggregate plus the hit chain.
  int derive_links = 0;
  int count_values = 0;
  tree.visit([&](ProvTree::NodeIndex i) {
    const Vertex& v = tree.vertex_of(i);
    if (v.kind == VertexKind::kDerive && v.rule() == "c") ++derive_links;
    if (v.kind == VertexKind::kExist && v.tuple().table() == "hits") {
      ++count_values;
    }
  });
  EXPECT_EQ(derive_links, 4);
  EXPECT_EQ(count_values, 4);
  // The tree's depth grows with the number of contributions.
  EXPECT_GT(tree.depth(), 12u);
  // The seed of the chain is the FIRST hit... no: the walk follows each
  // derive's recorded trigger, the contribution that fired it, down from
  // the final count -- the newest hit.
  const auto seed = find_seed(tree);
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ(seed->tuple.table(), "hit");
  EXPECT_EQ(seed->time, 40);  // the last contribution
}

TEST(Aggregate, GroupsAreIndependentAcrossNodes) {
  Engine engine((parse_program(kCountProgram)));
  engine.schedule_insert(Tuple("hit", {Value("n1"), Value("k"), Value(1)}),
                         10);
  engine.schedule_insert(Tuple("hit", {Value("n2"), Value("k"), Value(1)}),
                         20);
  engine.run();
  EXPECT_TRUE(engine.is_live(Tuple("hits", {Value("n1"), Value("k"),
                                            Value(1)})));
  EXPECT_TRUE(engine.is_live(Tuple("hits", {Value("n2"), Value("k"),
                                            Value(1)})));
}

TEST(Aggregate, DownstreamRulesSeeEveryUpdate) {
  Engine engine(parse_program(R"(
    table hit(2) base immutable event.
    table hits(2) derived keys(0).
    table big(2) derived keys(0).
    rule c agg count Total hits(@N, Total) :- hit(@N, X).
    rule b big(@N, Total) :- hits(@N, Total), Total >= 3.
  )"));
  for (int i = 0; i < 5; ++i) {
    engine.schedule_insert(Tuple("hit", {Value("n"), Value(i)}), 10 * (i + 1));
  }
  engine.run();
  EXPECT_TRUE(engine.is_live(Tuple("big", {Value("n"), Value(5)})));
  EXPECT_FALSE(engine.is_live(Tuple("big", {Value("n"), Value(2)})));
}

TEST(Aggregate, ValidationRejectsMalformedAggRules) {
  // Aggregate variable bound in the body.
  EXPECT_THROW(parse_program(R"(
    table hit(2) base event immutable.
    table hits(2) derived keys(0).
    rule c agg count X hits(@N, X) :- hit(@N, X).
  )"),
               ProgramError);
  // Aggregate variable missing from the head.
  EXPECT_THROW(parse_program(R"(
    table hit(2) base event immutable.
    table hits(2) derived keys(0, 1).
    rule c agg count Total hits(@N, X) :- hit(@N, X).
  )"),
               ProgramError);
  // Aggregate column inside the keys (could never displace).
  EXPECT_THROW(parse_program(R"(
    table hit(2) base event immutable.
    table hits(2) derived keys(0, 1).
    rule c agg count Total hits(@N, Total) :- hit(@N, X).
  )"),
               ProgramError);
  // No keys at all.
  EXPECT_THROW(parse_program(R"(
    table hit(2) base event immutable.
    table hits(2) derived.
    rule c agg count Total hits(@N, Total) :- hit(@N, X).
  )"),
               ProgramError);
  // Summed variable unbound.
  EXPECT_THROW(parse_program(R"(
    table hit(2) base event immutable.
    table hits(2) derived keys(0).
    rule c agg sum Total W hits(@N, Total) :- hit(@N, X).
  )"),
               ProgramError);
  // Event head.
  EXPECT_THROW(parse_program(R"(
    table hit(2) base event immutable.
    table hits(2) derived keys(0) event.
    rule c agg count Total hits(@N, Total) :- hit(@N, X).
  )"),
               ProgramError);
}

TEST(Aggregate, RoundTripsThroughToString) {
  const Program program = parse_program(kCountProgram);
  const Program reparsed = parse_program(program.to_string());
  EXPECT_EQ(program.to_string(), reparsed.to_string());
  ASSERT_TRUE(program.find_rule("s")->agg.has_value());
  EXPECT_EQ(program.find_rule("s")->agg->sum_var, "W");
}

}  // namespace
}  // namespace dp
