// Append-only temporal provenance graph, stored column-wise.
//
// Built incrementally while the (primary or replayed) system runs. Supports
// the lookups DiffProv needs: the EXIST vertex of a tuple alive at a given
// time, the latest derivation "triggered by" a tuple (to climb the spine
// from a seed), and tree projection (see tree.h).
//
// Storage is struct-of-arrays: parallel kind/tuple-ref/rule-ref/time columns
// plus a CSR-style flat edge array. Tuples themselves live once in the
// process-wide interned store; a vertex carries a 32-bit TupleRef, so a
// tuple derived 10k times costs 10k refs, not 10k copies.
//
// The indexes are flat as well, so recording allocates nothing per tuple
// and never rehashes. A head array indexed by TupleRef holds each tuple's
// latest EXIST. It is paged: refs are dense but process-wide, so a small
// graph recorded after the store grew would otherwise pay 4 bytes for every
// tuple in the store. A page of kHeadPage heads is allocated when the graph
// records its first EXIST in it; the page directory costs 4 bytes per
// kHeadPage refs of the store. Two 32-bit link columns thread every other
// index through the vertices themselves, as newest-first chains ended by
// kNoVertex:
//
//             prev_                           aux_
//   EXIST     previous EXIST of its tuple     latest DERIVE it triggered
//   DERIVE    previous DERIVE, same trigger   previous extra support of
//                                             its APPEAR
//   APPEAR    --                              latest extra support
//
// An extra support is a DERIVE attached to an APPEAR after the APPEAR was
// created (the head was already alive), when its CSR span is frozen.
// Readers that promise insertion order (exists_of, derivations_triggered_by,
// for_each_child) walk a chain and reverse it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "provenance/vertex.h"
#include "store/store.h"

namespace dp {

class ProvenanceGraph {
 public:
  /// Records INSERT -> APPEAR -> EXIST for a base tuple. Event tuples get a
  /// closed one-instant EXIST interval [t, t+1). Returns the EXIST vertex.
  VertexId record_base_insert(TupleRef tuple, LogicalTime t, bool is_event);
  VertexId record_base_insert(const Tuple& tuple, LogicalTime t,
                              bool is_event) {
    return record_base_insert(intern_tuple(tuple), t, is_event);
  }

  /// Records DERIVE -> APPEAR -> EXIST for a derived tuple, with the DERIVE
  /// pointing at the live EXIST vertices of the body tuples. If the head is
  /// already alive (additional support), only a DERIVE vertex is added and
  /// attached to the existing APPEAR. Returns the head's EXIST vertex.
  VertexId record_derive(TupleRef head, NameRef rule,
                         const std::vector<TupleRef>& body,
                         std::size_t trigger_index, LogicalTime t,
                         bool is_event);
  VertexId record_derive(const Tuple& head, const std::string& rule,
                         const std::vector<Tuple>& body,
                         std::size_t trigger_index, LogicalTime t,
                         bool is_event);

  /// Records DELETE -> DISAPPEAR and closes the live EXIST interval.
  void record_base_delete(TupleRef tuple, LogicalTime t);
  void record_base_delete(const Tuple& tuple, LogicalTime t) {
    record_base_delete(intern_tuple(tuple), t);
  }

  /// Records UNDERIVE -> DISAPPEAR and closes the live EXIST interval.
  void record_underive(TupleRef tuple, NameRef rule, LogicalTime t);
  void record_underive(const Tuple& tuple, const std::string& rule,
                       LogicalTime t) {
    record_underive(intern_tuple(tuple), intern_name(rule), t);
  }

  /// Materializes the vertex view (columns + children copied into one
  /// struct). Bind to `const Vertex&` or a value; the view stays meaningful
  /// after further recording (refs are stable, children of a finished vertex
  /// only ever grow for APPEARs gaining support).
  [[nodiscard]] Vertex vertex(VertexId id) const;
  [[nodiscard]] std::size_t size() const { return kind_.size(); }

  // --- columnar accessors (no materialization; the hot-path API) ---
  [[nodiscard]] VertexKind kind(VertexId id) const { return kind_[id]; }
  [[nodiscard]] TupleRef tuple_ref(VertexId id) const { return tuple_[id]; }
  [[nodiscard]] NameRef rule_ref(VertexId id) const { return rule_[id]; }
  [[nodiscard]] LogicalTime time_of(VertexId id) const { return time_[id]; }
  [[nodiscard]] std::int32_t trigger_of(VertexId id) const {
    return trigger_[id];
  }
  [[nodiscard]] TimeInterval interval_of(VertexId id) const {
    if (kind_[id] != VertexKind::kExist) return {};
    return {time_[id], exist_end_[id]};
  }
  [[nodiscard]] std::size_t child_count(VertexId id) const {
    std::size_t count = edge_count_[id];
    for (VertexId v = extra_head(id); v != kNoVertex; v = aux_[v]) ++count;
    return count;
  }
  /// First child (causal order). Precondition: child_count(id) > 0. Only
  /// APPEARs gain children after creation, and each is created with its
  /// first support, so the first child is always in the CSR span.
  [[nodiscard]] VertexId first_child(VertexId id) const {
    return edges_[edge_begin_[id]];
  }
  /// Children in causal order: the CSR span, then post-creation appends.
  template <typename Visitor>
  void for_each_child(VertexId id, Visitor&& fn) const {
    const std::uint32_t begin = edge_begin_[id];
    for (std::uint32_t i = 0; i < edge_count_[id]; ++i) fn(edges_[begin + i]);
    if (extra_head(id) != kNoVertex) {
      std::vector<VertexId> extras;
      oldest_first(extra_head(id), aux_, extras);
      for (const VertexId child : extras) fn(child);
    }
  }
  [[nodiscard]] std::vector<VertexId> children_of(VertexId id) const;

  /// Pulls the cache lines holding `id`'s column entries (kind/tuple/time
  /// and the CSR span descriptor). Tree projection calls this for every
  /// child the moment it is discovered, so by the time the DFS pops the
  /// child its columns are already in cache. No-op on compilers without
  /// __builtin_prefetch.
  void prefetch_vertex(VertexId id) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(&kind_[id]);
    __builtin_prefetch(&tuple_[id]);
    __builtin_prefetch(&time_[id]);
    __builtin_prefetch(&edge_begin_[id]);
#else
    (void)id;
#endif
  }

  /// EXIST vertex of `tuple` alive at `at` (interval contains `at`), if any.
  [[nodiscard]] std::optional<VertexId> exist_at(TupleRef tuple,
                                                 LogicalTime at) const;
  [[nodiscard]] std::optional<VertexId> exist_at(const Tuple& tuple,
                                                 LogicalTime at) const;

  /// EXIST vertex of `tuple` with the latest interval start <= `at`
  /// (regardless of whether it is still alive at `at`). Used to locate event
  /// tuples, whose EXIST closes immediately.
  [[nodiscard]] std::optional<VertexId> latest_exist_before(
      TupleRef tuple, LogicalTime at) const;
  [[nodiscard]] std::optional<VertexId> latest_exist_before(
      const Tuple& tuple, LogicalTime at) const;

  /// All EXIST vertices of `tuple`, in insertion (time) order.
  [[nodiscard]] std::vector<VertexId> exists_of(TupleRef tuple) const;
  [[nodiscard]] std::vector<VertexId> exists_of(const Tuple& tuple) const;

  /// Iterates every distinct tuple the graph has seen, with its EXIST
  /// vertices, in structural tuple order (deterministic; identical to the
  /// former std::map iteration). Used by the reference finder. `fn` is any
  /// callable taking (const Tuple&, const std::vector<VertexId>&); a
  /// template rather than std::function so tight visitors inline.
  template <typename Visitor>
  void for_each_tuple(Visitor&& fn) const {
    std::vector<VertexId> exists;
    for (const TupleRef ref : sorted_tuples()) {
      oldest_first(latest_exist(ref), prev_, exists);
      fn(global_store().resolve(ref), std::as_const(exists));
    }
  }

  /// DERIVE vertices whose *trigger* child is the EXIST vertex `exist`.
  /// Climbing these edges from a seed reaches the event the seed caused
  /// (used to re-root the bad tree after a replay round).
  [[nodiscard]] std::vector<VertexId> derivations_triggered_by(
      VertexId exist) const;

  /// The APPEAR time of the tuple behind an EXIST vertex (== interval
  /// start); the quantity compared when looking for the "last" precondition.
  [[nodiscard]] LogicalTime appear_time(VertexId exist) const {
    return time_[exist];
  }

  /// Resident bytes of this graph's own storage (columns, edge array,
  /// indexes). The interned tuples are shared process-wide and accounted in
  /// dp.store.bytes, not here.
  [[nodiscard]] std::size_t resident_bytes() const;

  /// Growth and query counters, maintained as plain fields on the hot path.
  struct Counters {
    std::array<std::uint64_t, 7> by_kind{};  // indexed by VertexKind
    std::uint64_t lookups = 0;  // exist_at + latest_exist_before calls
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Delta-publishes this graph's counters into `registry` as dp.prov.*
  /// (vertex counts per kind, total vertices, lookup count) plus a
  /// dp.prov.graph_vertices high-water gauge. Safe to call repeatedly; only
  /// growth since the last publish reaches the registry.
  void publish_metrics(obs::MetricsRegistry& registry);

 private:
  VertexId add_vertex(VertexKind kind, TupleRef tuple, NameRef rule,
                      LogicalTime t);
  void add_edge(VertexId child) { edges_.push_back(child); }
  /// Ranged CSR append: one insert for a whole child list (a DERIVE's body),
  /// a single capacity check + memcpy instead of a push_back per edge.
  void add_edges(const std::vector<VertexId>& children) {
    edges_.insert(edges_.end(), children.begin(), children.end());
  }
  /// Makes `exist` the latest EXIST of `tuple`.
  void push_exist(TupleRef tuple, VertexId exist);
  [[nodiscard]] std::optional<VertexId> live_exist(TupleRef tuple) const;
  void close_exist(TupleRef tuple, LogicalTime t);
  [[nodiscard]] const std::vector<TupleRef>& sorted_tuples() const;
  /// Latest EXIST of `tuple`, or kNoVertex.
  [[nodiscard]] VertexId latest_exist(TupleRef tuple) const {
    const std::size_t page = tuple / kHeadPage;
    if (page >= head_page_.size() || head_page_[page] == kNoPage) {
      return kNoVertex;
    }
    return head_[head_page_[page] + tuple % kHeadPage];
  }
  /// Newest extra support of an APPEAR; kNoVertex for every other kind.
  [[nodiscard]] VertexId extra_head(VertexId id) const {
    return kind_[id] == VertexKind::kAppear ? aux_[id] : kNoVertex;
  }
  /// Replaces `out` with the chain starting at `newest` and linked through
  /// `link`, reversed into insertion order.
  static void oldest_first(VertexId newest, const std::vector<VertexId>& link,
                           std::vector<VertexId>& out);

  // Vertex columns (struct of arrays; one entry per vertex).
  std::vector<VertexKind> kind_;
  std::vector<TupleRef> tuple_;
  std::vector<NameRef> rule_;
  std::vector<LogicalTime> time_;
  std::vector<LogicalTime> exist_end_;  // EXIST: interval end, else +inf
  std::vector<std::int32_t> trigger_;
  // CSR edge storage: vertex id -> [edge_begin_, +edge_count_) in edges_.
  // Vertices are closed in creation order, so each span is contiguous.
  std::vector<std::uint32_t> edge_begin_;
  std::vector<std::uint32_t> edge_count_;
  std::vector<VertexId> edges_;
  // The two link columns (see the table at the top of this file).
  std::vector<VertexId> prev_;
  std::vector<VertexId> aux_;

  // TupleRef -> its latest EXIST (kNoVertex if none), paged: ref r's head
  // is head_[head_page_[r / kHeadPage] + r % kHeadPage], and a page absent
  // from the directory (kNoPage) holds no EXIST.
  static constexpr std::uint32_t kHeadPage = 256;
  static constexpr std::uint32_t kNoPage = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> head_page_;
  std::vector<VertexId> head_;
  std::size_t tuple_count_ = 0;  // refs with an EXIST in head_
  // Structurally-sorted refs with an EXIST, rebuilt lazily when that set
  // grew (for_each_tuple determinism).
  mutable std::vector<TupleRef> sorted_tuples_;
  // record_derive's body EXISTs, reused so recording never allocates them.
  std::vector<VertexId> body_scratch_;
  // mutable: the const lookups count themselves.
  mutable Counters counters_;
  Counters published_;
};

}  // namespace dp
