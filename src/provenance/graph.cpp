#include "provenance/graph.h"

#include <algorithm>
#include <cassert>

#include "obs/obs.h"

namespace dp {

namespace {

/// Latency sketch for provenance lookups, sampled only while the tracer is
/// enabled (a steady_clock read per lookup is too expensive otherwise).
obs::QuantileSketch& lookup_sketch() {
  static obs::QuantileSketch& sketch =
      obs::default_registry().sketch("dp.prov.lookup_us");
  return sketch;
}

/// Samples one lookup: counts it always, times it only when tracing.
class LookupSample {
 public:
  explicit LookupSample(std::uint64_t& counter) {
    ++counter;
    if (DP_OBS_TRACING()) start_us_ = obs::monotonic_micros();
  }
  ~LookupSample() {
    if (start_us_ != kOff) {
      lookup_sketch().observe(double(obs::monotonic_micros() - start_us_));
    }
  }
  LookupSample(const LookupSample&) = delete;
  LookupSample& operator=(const LookupSample&) = delete;

 private:
  static constexpr std::uint64_t kOff = ~std::uint64_t{0};
  std::uint64_t start_us_ = kOff;
};

}  // namespace

std::string_view vertex_kind_name(VertexKind kind) {
  switch (kind) {
    case VertexKind::kInsert: return "INSERT";
    case VertexKind::kDelete: return "DELETE";
    case VertexKind::kExist: return "EXIST";
    case VertexKind::kDerive: return "DERIVE";
    case VertexKind::kUnderive: return "UNDERIVE";
    case VertexKind::kAppear: return "APPEAR";
    case VertexKind::kDisappear: return "DISAPPEAR";
  }
  return "?";
}

std::string Vertex::label() const {
  std::string out(vertex_kind_name(kind));
  out += " ";
  out += tuple().to_string();
  if (rule_ref != kNoName && !rule().empty()) out += " via " + rule();
  if (kind == VertexKind::kExist) {
    out += " @[" + std::to_string(interval.start) + ", " +
           (interval.open_ended() ? "inf" : std::to_string(interval.end)) +
           ")";
  } else {
    out += " @" + std::to_string(time);
  }
  return out;
}

VertexId ProvenanceGraph::add_vertex(VertexKind kind, TupleRef tuple,
                                     NameRef rule, LogicalTime t) {
  ++counters_.by_kind[static_cast<std::size_t>(kind)];
  const auto id = static_cast<VertexId>(kind_.size());
  kind_.push_back(kind);
  tuple_.push_back(tuple);
  rule_.push_back(rule);
  time_.push_back(t);
  exist_end_.push_back(kTimeInfinity);
  trigger_.push_back(-1);
  // The caller appends this vertex's children (add_edge) before creating the
  // next vertex, so the CSR span starts at the current edge cursor.
  edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
  edge_count_.push_back(0);
  prev_.push_back(kNoVertex);
  aux_.push_back(kNoVertex);
  return id;
}

void ProvenanceGraph::push_exist(TupleRef tuple, VertexId exist) {
  const std::size_t page = tuple / kHeadPage;
  if (page >= head_page_.size()) head_page_.resize(page + 1, kNoPage);
  if (head_page_[page] == kNoPage) {
    head_page_[page] = static_cast<std::uint32_t>(head_.size());
    head_.resize(head_.size() + kHeadPage, kNoVertex);
  }
  VertexId& head = head_[head_page_[page] + tuple % kHeadPage];
  if (head == kNoVertex) ++tuple_count_;
  prev_[exist] = head;
  head = exist;
}

void ProvenanceGraph::oldest_first(VertexId newest,
                                   const std::vector<VertexId>& link,
                                   std::vector<VertexId>& out) {
  out.clear();
  for (VertexId v = newest; v != kNoVertex; v = link[v]) out.push_back(v);
  std::reverse(out.begin(), out.end());
}

Vertex ProvenanceGraph::vertex(VertexId id) const {
  Vertex v;
  v.kind = kind_[id];
  v.tuple_ref = tuple_[id];
  v.rule_ref = rule_[id];
  v.time = time_[id];
  v.interval = interval_of(id);
  v.trigger_index = trigger_[id];
  v.children = children_of(id);
  return v;
}

std::vector<VertexId> ProvenanceGraph::children_of(VertexId id) const {
  std::vector<VertexId> out;
  out.reserve(child_count(id));
  for_each_child(id, [&out](VertexId child) { out.push_back(child); });
  return out;
}

std::optional<VertexId> ProvenanceGraph::live_exist(TupleRef tuple) const {
  const VertexId last = latest_exist(tuple);
  if (last == kNoVertex || exist_end_[last] != kTimeInfinity) {
    return std::nullopt;
  }
  return last;
}

void ProvenanceGraph::close_exist(TupleRef tuple, LogicalTime t) {
  auto live = live_exist(tuple);
  if (live) exist_end_[*live] = t;
}

VertexId ProvenanceGraph::record_base_insert(TupleRef tuple, LogicalTime t,
                                             bool is_event) {
  const VertexId insert_id =
      add_vertex(VertexKind::kInsert, tuple, kNoName, t);

  const VertexId appear_id =
      add_vertex(VertexKind::kAppear, tuple, kNoName, t);
  add_edge(insert_id);
  edge_count_[appear_id] = 1;

  const VertexId exist_id = add_vertex(VertexKind::kExist, tuple, kNoName, t);
  add_edge(appear_id);
  edge_count_[exist_id] = 1;
  if (is_event) exist_end_[exist_id] = t + 1;
  push_exist(tuple, exist_id);
  return exist_id;
}

VertexId ProvenanceGraph::record_derive(TupleRef head, NameRef rule,
                                        const std::vector<TupleRef>& body,
                                        std::size_t trigger_index,
                                        LogicalTime t, bool is_event) {
  // Resolve the body tuples to their EXIST vertices as of `t`. A body tuple
  // must have been recorded before it can support a derivation; event
  // triggers have a one-instant interval, so fall back to the latest EXIST.
  std::vector<VertexId>& body_ids = body_scratch_;
  body_ids.clear();
  for (const TupleRef b : body) {
    std::optional<VertexId> id = exist_at(b, t);
    if (!id) id = latest_exist_before(b, t);
    if (!id) {
      // Only possible under selective (filtered) recording: the body tuple's
      // own provenance was pruned. Record a boundary EXIST so the projected
      // tree remains well-formed; it reads as an unexpanded base fact.
      id = record_base_insert(b, t, false);
    }
    body_ids.push_back(*id);
  }

  const VertexId derive_id = add_vertex(VertexKind::kDerive, head, rule, t);
  add_edges(body_ids);
  edge_count_[derive_id] = static_cast<std::uint32_t>(body_ids.size());
  trigger_[derive_id] = static_cast<std::int32_t>(trigger_index);
  const VertexId trigger = body_ids[trigger_index];
  prev_[derive_id] = aux_[trigger];
  aux_[trigger] = derive_id;

  // Additional support for an already-live head: attach the new DERIVE to
  // the existing APPEAR and keep the open EXIST. The APPEAR's CSR span is
  // frozen, so the DERIVE joins the APPEAR's extra-support chain (causal
  // order is CSR span first, then the chain oldest first).
  if (auto live = live_exist(head)) {
    const VertexId appear_id = first_child(*live);
    aux_[derive_id] = aux_[appear_id];
    aux_[appear_id] = derive_id;
    return *live;
  }

  const VertexId appear_id = add_vertex(VertexKind::kAppear, head, kNoName, t);
  add_edge(derive_id);
  edge_count_[appear_id] = 1;

  const VertexId exist_id = add_vertex(VertexKind::kExist, head, kNoName, t);
  add_edge(appear_id);
  edge_count_[exist_id] = 1;
  if (is_event) exist_end_[exist_id] = t + 1;
  push_exist(head, exist_id);
  return exist_id;
}

VertexId ProvenanceGraph::record_derive(const Tuple& head,
                                        const std::string& rule,
                                        const std::vector<Tuple>& body,
                                        std::size_t trigger_index,
                                        LogicalTime t, bool is_event) {
  std::vector<TupleRef> body_refs;
  body_refs.reserve(body.size());
  for (const Tuple& b : body) body_refs.push_back(intern_tuple(b));
  return record_derive(intern_tuple(head), intern_name(rule), body_refs,
                       trigger_index, t, is_event);
}

void ProvenanceGraph::record_base_delete(TupleRef tuple, LogicalTime t) {
  const VertexId del_id = add_vertex(VertexKind::kDelete, tuple, kNoName, t);

  const VertexId dis_id = add_vertex(VertexKind::kDisappear, tuple, kNoName, t);
  add_edge(del_id);
  edge_count_[dis_id] = 1;
  close_exist(tuple, t);
}

void ProvenanceGraph::record_underive(TupleRef tuple, NameRef rule,
                                      LogicalTime t) {
  const VertexId underive_id =
      add_vertex(VertexKind::kUnderive, tuple, rule, t);

  const VertexId dis_id = add_vertex(VertexKind::kDisappear, tuple, kNoName, t);
  add_edge(underive_id);
  edge_count_[dis_id] = 1;
  close_exist(tuple, t);
}

std::optional<VertexId> ProvenanceGraph::exist_at(TupleRef tuple,
                                                  LogicalTime at) const {
  LookupSample sample(counters_.lookups);
  for (VertexId v = latest_exist(tuple); v != kNoVertex; v = prev_[v]) {
    if (interval_of(v).contains(at)) return v;
  }
  return std::nullopt;
}

std::optional<VertexId> ProvenanceGraph::exist_at(const Tuple& tuple,
                                                  LogicalTime at) const {
  const TupleRef ref = global_store().find(tuple);
  if (ref == kNoTupleRef) {
    LookupSample sample(counters_.lookups);  // count the miss, as before
    return std::nullopt;
  }
  return exist_at(ref, at);
}

std::optional<VertexId> ProvenanceGraph::latest_exist_before(
    TupleRef tuple, LogicalTime at) const {
  LookupSample sample(counters_.lookups);
  for (VertexId v = latest_exist(tuple); v != kNoVertex; v = prev_[v]) {
    if (time_[v] <= at) return v;
  }
  return std::nullopt;
}

std::optional<VertexId> ProvenanceGraph::latest_exist_before(
    const Tuple& tuple, LogicalTime at) const {
  const TupleRef ref = global_store().find(tuple);
  if (ref == kNoTupleRef) {
    LookupSample sample(counters_.lookups);
    return std::nullopt;
  }
  return latest_exist_before(ref, at);
}

std::optional<VertexId> ProvenanceGraph::first_exist(
    const Tuple& tuple) const {
  LookupSample sample(counters_.lookups);
  const TupleRef ref = global_store().find(tuple);
  if (ref == kNoTupleRef) return std::nullopt;
  VertexId first = kNoVertex;
  for (VertexId v = latest_exist(ref); v != kNoVertex; v = prev_[v]) first = v;
  if (first == kNoVertex) return std::nullopt;
  return first;
}

std::vector<VertexId> ProvenanceGraph::exists_of(TupleRef tuple) const {
  std::vector<VertexId> out;
  oldest_first(latest_exist(tuple), prev_, out);
  return out;
}

std::vector<VertexId> ProvenanceGraph::exists_of(const Tuple& tuple) const {
  const TupleRef ref = global_store().find(tuple);
  return ref == kNoTupleRef ? std::vector<VertexId>{} : exists_of(ref);
}

const std::vector<TupleRef>& ProvenanceGraph::sorted_tuples() const {
  if (sorted_tuples_.size() != tuple_count_) {
    sorted_tuples_.clear();
    sorted_tuples_.reserve(tuple_count_);
    for (std::size_t page = 0; page < head_page_.size(); ++page) {
      if (head_page_[page] == kNoPage) continue;
      for (std::uint32_t i = 0; i < kHeadPage; ++i) {
        if (head_[head_page_[page] + i] != kNoVertex) {
          sorted_tuples_.push_back(
              static_cast<TupleRef>(page * kHeadPage + i));
        }
      }
    }
    TupleStore& store = global_store();
    std::sort(sorted_tuples_.begin(), sorted_tuples_.end(),
              [&store](TupleRef a, TupleRef b) { return store.less(a, b); });
  }
  return sorted_tuples_;
}

std::vector<VertexId> ProvenanceGraph::derivations_triggered_by(
    VertexId exist) const {
  std::vector<VertexId> out;
  if (kind_[exist] == VertexKind::kExist) oldest_first(aux_[exist], prev_, out);
  return out;
}

std::size_t ProvenanceGraph::resident_bytes() const {
  const std::size_t per_vertex =
      sizeof(VertexKind) + sizeof(TupleRef) + sizeof(NameRef) +
      2 * sizeof(LogicalTime) + sizeof(std::int32_t) +
      2 * sizeof(std::uint32_t) + 2 * sizeof(VertexId);
  return kind_.size() * per_vertex + edges_.capacity() * sizeof(VertexId) +
         head_page_.size() * sizeof(std::uint32_t) +
         head_.size() * sizeof(VertexId) +
         sorted_tuples_.capacity() * sizeof(TupleRef);
}

void ProvenanceGraph::publish_metrics(obs::MetricsRegistry& registry) {
  static constexpr std::array<const char*, 7> kKindMetric = {
      "dp.prov.vertex.insert",   "dp.prov.vertex.delete",
      "dp.prov.vertex.exist",    "dp.prov.vertex.derive",
      "dp.prov.vertex.underive", "dp.prov.vertex.appear",
      "dp.prov.vertex.disappear"};
  std::uint64_t total_delta = 0;
  for (std::size_t k = 0; k < kKindMetric.size(); ++k) {
    const std::uint64_t cur = counters_.by_kind[k];
    std::uint64_t& seen = published_.by_kind[k];
    if (cur > seen) {
      registry.counter(kKindMetric[k]).inc(cur - seen);
      total_delta += cur - seen;
      seen = cur;
    }
  }
  if (total_delta != 0) registry.counter("dp.prov.vertices").inc(total_delta);
  if (counters_.lookups > published_.lookups) {
    registry.counter("dp.prov.lookups")
        .inc(counters_.lookups - published_.lookups);
    published_.lookups = counters_.lookups;
  }
  registry.gauge("dp.prov.graph_vertices")
      .set_max(static_cast<std::int64_t>(kind_.size()));
  // The storage the graph references lives in the shared store; publish its
  // gauges alongside so a metrics dump shows both sides of the split.
  global_store().publish_metrics(registry);
}

}  // namespace dp
