// Distributed (sharded) provenance storage — paper section 4.8:
//
//   "in actual operation, DiffProv is decentralized: it never performs any
//    global operation on the provenance trees ... each node in the
//    distributed system only stores the provenance of its local tuples.
//    When a node needs to invoke an operation on a vertex that is stored on
//    another node, only that part of the provenance tree is materialized on
//    demand."
//
// ShardedProvenance keeps one ProvenanceGraph per node. A derivation whose
// head travels to another node leaves *stub* EXIST vertices for its remote
// body tuples in the head's shard; tree projection follows such stubs into
// the owning shard and counts every crossing as a remote materialization.
// The projected ProvTree is bit-identical in structure to what a monolithic
// recorder would produce (verified by tests), so DiffProv runs unchanged on
// top -- only the storage and query-cost model differ.
#pragma once

#include <map>

#include "provenance/graph.h"
#include "provenance/tree.h"
#include "runtime/observer.h"

namespace dp {

class ShardedProvenance final : public RuntimeObserver {
 public:
  // --- RuntimeObserver: records route to the shard of the tuple's node ---
  void on_base_insert(TupleRef tuple, LogicalTime t, bool is_event) override;
  void on_base_delete(TupleRef tuple, LogicalTime t) override;
  void on_derive(TupleRef head, NameRef rule,
                 const std::vector<TupleRef>& body, std::size_t trigger_index,
                 LogicalTime t, bool is_event) override;
  void on_underive(TupleRef head, NameRef rule, TupleRef cause,
                   LogicalTime t) override;

  /// The shard of one node (nullptr if nothing was ever stored there).
  [[nodiscard]] const ProvenanceGraph* shard(const NodeName& node) const;

  /// Number of shards (nodes that stored anything).
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Vertices stored per shard, for the storage-distribution bench.
  [[nodiscard]] std::map<NodeName, std::size_t> shard_sizes() const;

  /// Per-query materialization cost, reset by each project() call.
  struct QueryStats {
    std::size_t vertices_visited = 0;   // total tree vertices materialized
    std::size_t remote_fetches = 0;     // shard crossings (on-demand pulls)
    std::size_t shards_touched = 0;
  };
  [[nodiscard]] const QueryStats& last_query_stats() const { return stats_; }

  /// Projects the provenance tree of `event`'s first appearance across
  /// shards (as locate_tree does), materializing remote subtrees on demand.
  /// Returns nullopt if the event was never recorded.
  [[nodiscard]] std::optional<ProvTree> project(const Tuple& event);

 private:
  ProvenanceGraph& shard_for(TupleRef tuple);

  std::map<NodeName, ProvenanceGraph> shards_;
  QueryStats stats_;
};

}  // namespace dp
