#include "replay/checkpoint.h"

namespace dp {

Checkpoint Checkpoint::capture(const Engine& engine) {
  Checkpoint checkpoint;
  checkpoint.captured_at_ = engine.now();
  for (const auto& [table_name, decl] : engine.program().tables()) {
    if (decl.kind != TupleKind::kBase || decl.is_event()) continue;
    for (Tuple& t : engine.live_tuples(table_name)) {
      checkpoint.tuples_.push_back(std::move(t));
    }
  }
  return checkpoint;
}

}  // namespace dp
