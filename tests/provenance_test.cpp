// Tests for the temporal provenance graph, recorder and tree projection.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ndlog/parser.h"
#include "provenance/recorder.h"
#include "provenance/tree.h"
#include "runtime/engine.h"

namespace dp {
namespace {

Tuple make(const std::string& table, std::vector<Value> values) {
  return Tuple(table, std::move(values));
}

TEST(Graph, BaseInsertCreatesInsertAppearExistChain) {
  ProvenanceGraph graph;
  const Tuple t = make("cfg", {"n", 1});
  const VertexId exist = graph.record_base_insert(t, 10, false);
  const Vertex& ev = graph.vertex(exist);
  EXPECT_EQ(ev.kind, VertexKind::kExist);
  EXPECT_TRUE(ev.interval.open_ended());
  ASSERT_EQ(ev.children.size(), 1u);
  const Vertex& av = graph.vertex(ev.children[0]);
  EXPECT_EQ(av.kind, VertexKind::kAppear);
  ASSERT_EQ(av.children.size(), 1u);
  EXPECT_EQ(graph.vertex(av.children[0]).kind, VertexKind::kInsert);
}

TEST(Graph, EventTuplesGetInstantInterval) {
  ProvenanceGraph graph;
  const Tuple t = make("packet", {"n", 1});
  const VertexId exist = graph.record_base_insert(t, 10, true);
  EXPECT_EQ(graph.vertex(exist).interval, (TimeInterval{10, 11}));
  EXPECT_TRUE(graph.exist_at(t, 10).has_value());
  EXPECT_FALSE(graph.exist_at(t, 11).has_value());
  EXPECT_TRUE(graph.latest_exist_before(t, 50).has_value());
}

TEST(Graph, DeriveLinksBodyExists) {
  ProvenanceGraph graph;
  const Tuple b1 = make("a", {"n", 1});
  const Tuple b2 = make("b", {"n", 1, 2});
  const Tuple head = make("c", {"n", 3});
  graph.record_base_insert(b1, 1, false);
  graph.record_base_insert(b2, 2, false);
  const VertexId exist = graph.record_derive(head, "r1", {b1, b2}, 1, 3,
                                             false);
  const Vertex& ev = graph.vertex(exist);
  const Vertex& appear = graph.vertex(ev.children[0]);
  const Vertex& derive = graph.vertex(appear.children[0]);
  EXPECT_EQ(derive.kind, VertexKind::kDerive);
  EXPECT_EQ(derive.rule(), "r1");
  ASSERT_EQ(derive.children.size(), 2u);
  EXPECT_EQ(graph.vertex(derive.children[0]).tuple(), b1);
  EXPECT_EQ(graph.vertex(derive.children[1]).tuple(), b2);
  EXPECT_EQ(derive.trigger_index, 1);
}

TEST(Graph, RederivationAttachesToExistingAppear) {
  ProvenanceGraph graph;
  const Tuple b1 = make("a", {"n", 1});
  const Tuple b2 = make("a", {"n", 2});
  const Tuple head = make("c", {"n", 3});
  graph.record_base_insert(b1, 1, false);
  graph.record_base_insert(b2, 2, false);
  const VertexId e1 = graph.record_derive(head, "r1", {b1}, 0, 3, false);
  const VertexId e2 = graph.record_derive(head, "r2", {b2}, 0, 4, false);
  EXPECT_EQ(e1, e2);  // same live EXIST
  const Vertex& appear = graph.vertex(graph.vertex(e1).children[0]);
  EXPECT_EQ(appear.children.size(), 2u);  // two alternative derivations
}

TEST(Graph, DeleteClosesIntervalAndAddsNegativeVertices) {
  ProvenanceGraph graph;
  const Tuple t = make("cfg", {"n", 1});
  const VertexId exist = graph.record_base_insert(t, 10, false);
  graph.record_base_delete(t, 20);
  EXPECT_EQ(graph.vertex(exist).interval, (TimeInterval{10, 20}));
  EXPECT_FALSE(graph.exist_at(t, 25).has_value());
  EXPECT_TRUE(graph.exist_at(t, 15).has_value());
}

TEST(Graph, TriggerIndexFindsDownstreamDerivations) {
  ProvenanceGraph graph;
  const Tuple seed = make("pkt", {"n", 1});
  const Tuple head = make("out", {"n", 1});
  const VertexId seed_exist = graph.record_base_insert(seed, 1, true);
  graph.record_derive(head, "r1", {seed}, 0, 2, true);
  const auto derivations = graph.derivations_triggered_by(seed_exist);
  ASSERT_EQ(derivations.size(), 1u);
  EXPECT_EQ(graph.vertex(derivations[0]).tuple(), head);
}

TEST(Graph, IndexesReturnVerticesInRecordingOrder) {
  // Interleaved EXISTs of several tuples, several DERIVEs per trigger and
  // several extra supports on one APPEAR. Vertex ids are the graph's own
  // append order, so every expected id below follows from the script.
  ProvenanceGraph graph;
  const Tuple a1 = make("cfg", {"n", 1});
  const Tuple a2 = make("cfg", {"n", 2});
  const Tuple p = make("pkt", {"n", 1});
  const Tuple h = make("out", {"n", 1});
  const Tuple h2 = make("out", {"n", 2});
  const Tuple h3 = make("out", {"n", 3});
  EXPECT_EQ(graph.record_base_insert(a1, 1, false), 2u);    // 0 1 2
  EXPECT_EQ(graph.record_base_insert(a2, 2, false), 5u);    // 3 4 5
  EXPECT_EQ(graph.record_base_insert(p, 3, true), 8u);      // 6 7 8
  EXPECT_EQ(graph.record_derive(h, "r1", {p, a1}, 0, 3, false), 11u);  // 9..11
  EXPECT_EQ(graph.record_derive(h, "r2", {a2}, 0, 4, false), 11u);     // 12
  EXPECT_EQ(graph.record_derive(h, "r1", {p, a1}, 1, 5, false), 11u);  // 13
  graph.record_base_delete(a1, 6);                          // 14 15
  EXPECT_EQ(graph.record_base_insert(a1, 7, false), 18u);   // 16 17 18
  EXPECT_EQ(graph.record_base_insert(p, 8, true), 21u);     // 19 20 21
  EXPECT_EQ(graph.record_derive(h2, "r1", {p, a1}, 0, 8, false), 24u);  // 22..24
  EXPECT_EQ(graph.record_derive(h, "r3", {p}, 0, 9, false), 11u);       // 25
  EXPECT_EQ(graph.record_derive(h3, "r1", {a2}, 0, 10, false), 28u);    // 26..28
  graph.record_underive(h, "r1", 11);                       // 29 30
  EXPECT_EQ(graph.record_derive(h, "r2", {a2}, 0, 12, false), 33u);     // 31..33
  ASSERT_EQ(graph.size(), 34u);

  using Ids = std::vector<VertexId>;
  EXPECT_EQ(graph.exists_of(a1), (Ids{2, 18}));
  EXPECT_EQ(graph.exists_of(a2), (Ids{5}));
  EXPECT_EQ(graph.exists_of(p), (Ids{8, 21}));
  EXPECT_EQ(graph.exists_of(h), (Ids{11, 33}));
  EXPECT_EQ(graph.exists_of(make("out", {"n", 9})), Ids{});

  EXPECT_EQ(graph.derivations_triggered_by(8), (Ids{9}));
  EXPECT_EQ(graph.derivations_triggered_by(2), (Ids{13}));
  EXPECT_EQ(graph.derivations_triggered_by(5), (Ids{12, 26, 31}));
  EXPECT_EQ(graph.derivations_triggered_by(21), (Ids{22, 25}));
  EXPECT_EQ(graph.derivations_triggered_by(18), Ids{});
  EXPECT_EQ(graph.derivations_triggered_by(10), Ids{});  // an APPEAR

  // The APPEAR of h: its creating DERIVE, then three extra supports.
  EXPECT_EQ(graph.children_of(10), (Ids{9, 12, 13, 25}));
  EXPECT_EQ(graph.vertex(10).children, (Ids{9, 12, 13, 25}));
  EXPECT_EQ(graph.child_count(10), 4u);
  EXPECT_EQ(graph.first_child(10), 9u);
  // Link columns never leak into the children of other kinds.
  EXPECT_EQ(graph.children_of(2), (Ids{1}));  // EXIST that triggered 13
  EXPECT_EQ(graph.child_count(2), 1u);
  EXPECT_EQ(graph.children_of(13), (Ids{8, 2}));  // extra support, 2nd
  EXPECT_EQ(graph.child_count(13), 2u);
  EXPECT_EQ(graph.first_child(13), 8u);
  EXPECT_EQ(graph.children_of(25), (Ids{21}));
  EXPECT_EQ(graph.children_of(22), (Ids{21, 18}));
  EXPECT_EQ(graph.children_of(32), (Ids{31}));
  EXPECT_EQ(graph.children_of(11), (Ids{10}));

  using Opt = std::optional<VertexId>;
  EXPECT_EQ(graph.exist_at(a1, 5), Opt(2));
  EXPECT_EQ(graph.exist_at(a1, 6), std::nullopt);
  EXPECT_EQ(graph.exist_at(a1, 7), Opt(18));
  EXPECT_EQ(graph.exist_at(p, 3), Opt(8));
  EXPECT_EQ(graph.exist_at(p, 4), std::nullopt);
  EXPECT_EQ(graph.exist_at(p, 8), Opt(21));
  EXPECT_EQ(graph.exist_at(h, 10), Opt(11));
  EXPECT_EQ(graph.exist_at(h, 11), std::nullopt);
  EXPECT_EQ(graph.exist_at(h, 12), Opt(33));
  EXPECT_EQ(graph.latest_exist_before(p, 2), std::nullopt);
  EXPECT_EQ(graph.latest_exist_before(p, 7), Opt(8));
  EXPECT_EQ(graph.latest_exist_before(p, 100), Opt(21));
  EXPECT_EQ(graph.latest_exist_before(a1, 6), Opt(2));
  EXPECT_EQ(graph.latest_exist_before(h, 11), Opt(11));
  EXPECT_EQ(graph.latest_exist_before(h, 12), Opt(33));

  std::vector<std::pair<std::string, Ids>> tuples;
  graph.for_each_tuple([&](const Tuple& t, const Ids& exists) {
    tuples.emplace_back(t.to_string(), exists);
  });
  const std::vector<std::pair<std::string, Ids>> expected = {
      {a1.to_string(), {2, 18}}, {a2.to_string(), {5}},
      {h.to_string(), {11, 33}}, {h2.to_string(), {24}},
      {h3.to_string(), {28}},    {p.to_string(), {8, 21}}};
  EXPECT_EQ(tuples, expected);
}

TEST(Graph, HeadMemoryFollowsTheGraphNotTheStore) {
  // TupleRefs are process-wide and dense. Grow the store first, as ingest
  // does in a long-running daemon, so this small graph's tuples get refs
  // far past anything it records; then split them over two head pages.
  const auto pad = [](int from, int to) {
    for (int i = from; i < to; ++i) {
      global_store().intern(make("pad", {"n", i}));
    }
  };
  pad(0, 1 << 17);
  const Tuple a = make("late", {"n", 1});
  global_store().intern(a);
  pad(1 << 17, (1 << 17) + 1000);
  const Tuple b = make("late", {"n", 2});

  ProvenanceGraph graph;
  EXPECT_EQ(graph.record_base_insert(b, 1, false), 2u);
  EXPECT_EQ(graph.record_base_insert(a, 2, false), 5u);
  EXPECT_EQ(graph.exists_of(a), (std::vector<VertexId>{5}));
  EXPECT_EQ(graph.exists_of(b), (std::vector<VertexId>{2}));
  std::vector<std::string> seen;
  graph.for_each_tuple([&](const Tuple& t, const std::vector<VertexId>&) {
    seen.push_back(t.to_string());
  });
  EXPECT_EQ(seen, (std::vector<std::string>{a.to_string(), b.to_string()}));
  // A head with one slot per stored tuple would take over 512 KiB.
  EXPECT_LT(graph.resident_bytes(), std::size_t{16} << 10);
}

// ---------------------------------------------------------------- trees --

constexpr const char* kChainProgram = R"(
  table base1(2) base mutable.
  table base2(2) base mutable.
  table mid(2) derived.
  table top(2) derived.
  rule r1 mid(@N, X) :- base1(@N, X), base2(@N, X).
  rule r2 top(@N, X) :- mid(@N, X).
)";

TEST(Tree, ProjectionExpandsFullCausalChain) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.run();

  const Tuple top = make("top", {"n", 1});
  const auto exist = recorder.graph().exist_at(top, engine.now());
  ASSERT_TRUE(exist.has_value());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);

  // EXIST(top) -> APPEAR -> DERIVE(r2) -> EXIST(mid) -> APPEAR -> DERIVE(r1)
  //   -> { EXIST(base1) -> APPEAR -> INSERT, EXIST(base2) -> APPEAR ->
  //   INSERT } : 12 vertexes total.
  EXPECT_EQ(tree.size(), 12u);
  const auto hist = tree.kind_histogram();
  EXPECT_EQ(hist.at(VertexKind::kExist), 4u);
  EXPECT_EQ(hist.at(VertexKind::kAppear), 4u);
  EXPECT_EQ(hist.at(VertexKind::kDerive), 2u);
  EXPECT_EQ(hist.at(VertexKind::kInsert), 2u);
  EXPECT_EQ(tree.depth(), 9u);
  EXPECT_EQ(tree.vertex_of(tree.root()).tuple(), top);
}

TEST(Tree, TextAndDotRenderings) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.run();
  const auto exist =
      recorder.graph().exist_at(make("top", {"n", 1}), engine.now());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);
  const std::string text = tree.to_text();
  EXPECT_NE(text.find("DERIVE top(@n, 1) via r2"), std::string::npos);
  EXPECT_NE(text.find("INSERT base1(@n, 1)"), std::string::npos);
  const std::string dot = tree.to_dot();
  EXPECT_NE(text.find("EXIST"), std::string::npos);
  EXPECT_NE(dot.find("digraph provenance"), std::string::npos);
  // Truncated rendering.
  const std::string truncated = tree.to_text(3);
  EXPECT_NE(truncated.find("more vertexes"), std::string::npos);
}

TEST(Recorder, FilterPrunesButKeepsBoundary) {
  ProvenanceRecorder recorder;
  // Record only tuples on node "n" whose table is not base2; base2 will show
  // up as a boundary fact when referenced by a derivation.
  recorder.set_filter(
      [](const Tuple& t) { return t.table() != "base2"; });
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.run();
  const auto exist =
      recorder.graph().exist_at(make("top", {"n", 1}), engine.now());
  ASSERT_TRUE(exist.has_value());
  const ProvTree tree = ProvTree::project(recorder.graph(), *exist);
  // The boundary EXIST for base2 is still present (as an unexpanded fact).
  const std::string text = tree.to_text();
  EXPECT_NE(text.find("base2"), std::string::npos);
}

TEST(Recorder, DisabledRecorderStaysEmpty) {
  ProvenanceRecorder recorder;
  recorder.set_enabled(false);
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.run();
  EXPECT_EQ(recorder.graph().size(), 0u);
}

TEST(Recorder, RuntimeIntegrationRecordsUnderive) {
  ProvenanceRecorder recorder;
  Engine engine((parse_program(kChainProgram)));
  engine.add_observer(&recorder);
  engine.schedule_insert(make("base1", {"n", 1}), 0);
  engine.schedule_insert(make("base2", {"n", 1}), 5);
  engine.schedule_delete(make("base1", {"n", 1}), 100);
  engine.run();
  // top and mid must both have closed EXIST intervals now.
  EXPECT_FALSE(
      recorder.graph().exist_at(make("top", {"n", 1}), 200).has_value());
  EXPECT_TRUE(
      recorder.graph().exist_at(make("top", {"n", 1}), 50).has_value());
}

}  // namespace
}  // namespace dp
