#include "provenance/tree.h"

#include <algorithm>

namespace dp {

ProvTree ProvTree::project(const ProvenanceGraph& graph, VertexId root) {
  ProvTree tree;
  // Only vertices at or before the root belong to its tree. Every vertex a
  // DERIVE reaches is, except the supports an APPEAR gains after the root
  // (a head re-derived while alive); those are skipped, so a replay stopped
  // at the root's time projects the same tree as a full one.
  const LogicalTime root_time = graph.time_of(root);
  // Iterative DFS that assigns node indices in pre-order, keeping child
  // order identical to the graph's (causal) child order.
  struct Frame {
    VertexId vertex;
    NodeIndex parent;
  };
  std::vector<Frame> stack = {{root, kNoNode}};
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    const auto index = static_cast<NodeIndex>(tree.nodes_.size());
    tree.nodes_.push_back(Node{frame.vertex, frame.parent, {}});
    // Assemble the view straight from the graph's columns (one pass per
    // column) and prefetch each child's column entries as it is discovered
    // -- by the time the DFS pops the child, its lines are in cache.
    Vertex v;
    v.kind = graph.kind(frame.vertex);
    v.tuple_ref = graph.tuple_ref(frame.vertex);
    v.rule_ref = graph.rule_ref(frame.vertex);
    v.time = graph.time_of(frame.vertex);
    v.interval = graph.interval_of(frame.vertex);
    v.trigger_index = graph.trigger_of(frame.vertex);
    v.children.reserve(graph.child_count(frame.vertex));
    graph.for_each_child(frame.vertex, [&](VertexId child) {
      if (graph.time_of(child) > root_time) return;
      graph.prefetch_vertex(child);
      v.children.push_back(child);
    });
    tree.vertices_.push_back(std::move(v));
    if (frame.parent != kNoNode) {
      tree.nodes_[static_cast<std::size_t>(frame.parent)].children.push_back(
          index);
    }
    // Push children in reverse so they are visited (and numbered) in order.
    const std::vector<VertexId>& children = tree.vertices_.back().children;
    for (auto it = children.rbegin(); it != children.rend(); ++it) {
      stack.push_back({*it, index});
    }
  }
  return tree;
}

std::map<VertexKind, std::size_t> ProvTree::kind_histogram() const {
  std::map<VertexKind, std::size_t> out;
  for (const Vertex& v : vertices_) {
    ++out[v.kind];
  }
  return out;
}

std::size_t ProvTree::depth() const {
  std::size_t best = 0;
  std::vector<std::size_t> depth_of(nodes_.size(), 1);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent != kNoNode) {
      depth_of[i] = depth_of[static_cast<std::size_t>(nodes_[i].parent)] + 1;
    }
    best = std::max(best, depth_of[i]);
  }
  return best;
}

std::string ProvTree::to_text(std::size_t max_nodes) const {
  std::string out;
  std::vector<std::size_t> indent(nodes_.size(), 0);
  std::size_t emitted = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].parent != kNoNode) {
      indent[i] = indent[static_cast<std::size_t>(nodes_[i].parent)] + 1;
    }
    if (max_nodes != 0 && emitted >= max_nodes) {
      out += "... (" + std::to_string(nodes_.size() - emitted) +
             " more vertexes)\n";
      break;
    }
    out += std::string(indent[i] * 2, ' ');
    out += vertices_[i].label();
    out += "\n";
    ++emitted;
  }
  return out;
}

std::string ProvTree::to_dot() const {
  std::string out = "digraph provenance {\n  rankdir=BT;\n";
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out += "  n" + std::to_string(i) + " [label=\"" +
           vertices_[i].label() + "\"];\n";
    if (nodes_[i].parent != kNoNode) {
      out += "  n" + std::to_string(i) + " -> n" +
             std::to_string(nodes_[i].parent) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

void ProvTree::visit(const std::function<void(NodeIndex)>& fn) const {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    fn(static_cast<NodeIndex>(i));
  }
}

ProvTree::NodeIndex ProvTreeBuilder::add(Vertex vertex,
                                         ProvTree::NodeIndex parent) {
  const auto index = static_cast<ProvTree::NodeIndex>(tree_.nodes_.size());
  tree_.nodes_.push_back(ProvTree::Node{kNoVertex, parent, {}});
  tree_.vertices_.push_back(std::move(vertex));
  if (parent != ProvTree::kNoNode) {
    tree_.nodes_[static_cast<std::size_t>(parent)].children.push_back(index);
  }
  return index;
}

ProvTree ProvTreeBuilder::take() && { return std::move(tree_); }

}  // namespace dp
