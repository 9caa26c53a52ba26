#include "diffprov/seed.h"

namespace dp {

std::optional<SeedInfo> find_seed(const ProvTree& tree) {
  if (tree.size() == 0) return std::nullopt;
  ProvTree::NodeIndex current = tree.root();
  ProvTree::NodeIndex last_exist = ProvTree::kNoNode;
  // Guard against malformed graphs; a tree can never be deeper than its size.
  for (std::size_t steps = 0; steps <= tree.size(); ++steps) {
    const Vertex& v = tree.vertex_of(current);
    const auto& children = tree.node(current).children;
    switch (v.kind) {
      case VertexKind::kExist:
        last_exist = current;
        if (children.empty()) return std::nullopt;  // boundary fact: no seed
        current = children.front();  // APPEAR
        break;
      case VertexKind::kAppear: {
        if (children.empty()) return std::nullopt;
        // Multi-support APPEARs keep alternative DERIVEs; the first child is
        // the derivation that actually made the tuple appear.
        current = children.front();
        break;
      }
      case VertexKind::kInsert: {
        SeedInfo seed;
        seed.insert_node = current;
        seed.exist_node = last_exist;
        seed.tuple = v.tuple();
        seed.time = v.time;
        return seed;
      }
      case VertexKind::kDerive: {
        // Descend into the trigger, the paper's last precondition, which
        // the graph records for every DERIVE: every other body row was live
        // when it arrived. The one child that can appear later is an
        // aggregate's previous value, which the engine reads when the
        // firing is processed and appends after the rule body; it must
        // never outrank the trigger, or the walk leaves the contribution
        // for the count chain.
        if (v.trigger_index < 0 ||
            static_cast<std::size_t>(v.trigger_index) >= children.size()) {
          return std::nullopt;
        }
        current = children[static_cast<std::size_t>(v.trigger_index)];
        break;
      }
      default:
        return std::nullopt;  // negative vertices never lead to a seed
    }
  }
  return std::nullopt;
}

std::vector<ProvTree::NodeIndex> spine_of(const ProvTree& tree,
                                          const SeedInfo& seed) {
  std::vector<ProvTree::NodeIndex> spine;
  ProvTree::NodeIndex current = seed.insert_node;
  while (current != ProvTree::kNoNode) {
    if (tree.vertex_of(current).kind == VertexKind::kDerive) {
      spine.push_back(current);
    }
    current = tree.node(current).parent;
  }
  return spine;
}

}  // namespace dp
