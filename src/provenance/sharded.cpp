#include "provenance/sharded.h"

#include <set>

#include "obs/obs.h"

namespace dp {

ProvenanceGraph& ShardedProvenance::shard_for(TupleRef tuple) {
  return shards_[global_store().location(tuple)];
}

void ShardedProvenance::on_base_insert(TupleRef tuple, LogicalTime t,
                                       bool is_event) {
  shard_for(tuple).record_base_insert(tuple, t, is_event);
}

void ShardedProvenance::on_base_delete(TupleRef tuple, LogicalTime t) {
  shard_for(tuple).record_base_delete(tuple, t);
}

void ShardedProvenance::on_derive(TupleRef head, NameRef rule,
                                  const std::vector<TupleRef>& body,
                                  std::size_t trigger_index, LogicalTime t,
                                  bool is_event) {
  // The head's shard records the derivation; body tuples that live on other
  // nodes appear as local stub EXISTs (record_derive creates boundaries for
  // tuples the shard never saw), which project() resolves on demand.
  shard_for(head).record_derive(head, rule, body, trigger_index, t, is_event);
}

void ShardedProvenance::on_underive(TupleRef head, NameRef rule,
                                    TupleRef cause, LogicalTime t) {
  (void)cause;
  shard_for(head).record_underive(head, rule, t);
}

const ProvenanceGraph* ShardedProvenance::shard(const NodeName& node) const {
  auto it = shards_.find(node);
  return it == shards_.end() ? nullptr : &it->second;
}

std::map<NodeName, std::size_t> ShardedProvenance::shard_sizes() const {
  std::map<NodeName, std::size_t> out;
  for (const auto& [node, graph] : shards_) {
    out.emplace(node, graph.size());
  }
  return out;
}

std::optional<ProvTree> ShardedProvenance::project(const Tuple& event) {
  DP_SPAN_CAT("dp.prov.project", "prov");
  stats_ = QueryStats{};
  const auto owner = shards_.find(event.location());
  if (owner == shards_.end()) return std::nullopt;
  const auto root = owner->second.first_exist(event);
  if (!root) return std::nullopt;

  // As in ProvTree::project: supports gained after the root are not part of
  // its tree.
  const LogicalTime root_time = owner->second.time_of(*root);
  std::set<NodeName> touched = {owner->first};
  ProvTreeBuilder builder;
  struct Frame {
    const ProvenanceGraph* graph;
    const NodeName* shard;
    VertexId id;
    ProvTree::NodeIndex parent;
  };
  std::vector<Frame> stack = {
      {&owner->second, &owner->first, *root, ProvTree::kNoNode}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    Vertex v = frame.graph->vertex(frame.id);

    // A local stub for a remote tuple: materialize the owning shard's
    // vertex on demand and continue the walk there.
    if (v.kind == VertexKind::kExist && v.node() != *frame.shard) {
      const auto remote_it = shards_.find(v.node());
      if (remote_it != shards_.end()) {
        auto remote =
            remote_it->second.exist_at(v.tuple_ref, v.interval.start);
        if (!remote) {
          remote = remote_it->second.latest_exist_before(v.tuple_ref,
                                                         v.interval.start);
        }
        if (remote) {
          ++stats_.remote_fetches;
          touched.insert(remote_it->first);
          frame.graph = &remote_it->second;
          frame.shard = &remote_it->first;
          frame.id = *remote;
          v = frame.graph->vertex(frame.id);
        }
      }
    }

    ++stats_.vertices_visited;
    std::erase_if(v.children, [&frame, root_time](VertexId child) {
      return frame.graph->time_of(child) > root_time;
    });
    const std::vector<VertexId> children = v.children;
    const ProvTree::NodeIndex index = builder.add(std::move(v), frame.parent);
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({frame.graph, frame.shard, *it, index});
    }
  }
  stats_.shards_touched = touched.size();
  // Once per projection (queries are rare next to recording): the
  // materialization cost model, aggregated across queries.
  auto& registry = obs::default_registry();
  registry.counter("dp.prov.projections").inc();
  registry.counter("dp.prov.project_vertices").inc(stats_.vertices_visited);
  registry.counter("dp.prov.remote_fetches").inc(stats_.remote_fetches);
  registry.gauge("dp.prov.shards")
      .set_max(static_cast<std::int64_t>(shards_.size()));
  return std::move(builder).take();
}

}  // namespace dp
