// Checkpoints of base state (paper section 4.8: "a log of tuple updates
// along with some checkpoints, so that the system state at any point in the
// past can be efficiently reconstructed").
//
// A checkpoint captures all *base* tuples live at capture time;
// restore_from_checkpoint (replay_engine.h) re-injects them into a fresh
// engine, whose derivation rules reconverge to the same derived state
// deterministically, and replays the log suffix after the checkpoint. That
// reconstructs any later point without paying for the full history. The
// ablation bench compares suffix-replay-from-checkpoint against full replay.
#pragma once

#include <vector>

#include "runtime/engine.h"

namespace dp {

class Checkpoint {
 public:
  /// Captures every live base tuple of `engine` (derived state is excluded:
  /// it is a deterministic function of base state and reconverges).
  static Checkpoint capture(const Engine& engine);

  [[nodiscard]] const std::vector<Tuple>& base_tuples() const {
    return tuples_;
  }
  [[nodiscard]] LogicalTime captured_at() const { return captured_at_; }

 private:
  std::vector<Tuple> tuples_;
  LogicalTime captured_at_ = 0;
};

}  // namespace dp
