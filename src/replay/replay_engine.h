// Deterministic replay (paper sections 5 and 4.6/4.8).
//
// Given a program, a topology, and the base-event log, `replay` re-executes
// the system and reconstructs its provenance graph. A Delta -- the set of
// base-tuple changes DiffProv is experimenting with -- can be injected into
// the replayed stream; this is the "clone the state, apply the change, roll
// forward" operation of section 4.6, realized as replay (the clone never
// touches the running system). Delta operations are applied "shortly before
// they are needed": the caller sets each op's time.
//
// `restore_from_checkpoint` is the cheaper rebuild of section 4.8's "log of
// tuple updates along with some checkpoints": state only, from a base-state
// snapshot plus the log after it.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "provenance/recorder.h"
#include "replay/checkpoint.h"
#include "replay/event_log.h"
#include "runtime/engine.h"

namespace dp {

/// One experimental change to a mutable base tuple (insert or delete).
struct DeltaOp {
  enum class Kind : std::uint8_t { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  Tuple tuple;
  LogicalTime at = 0;

  [[nodiscard]] std::string to_string() const;
};

/// A set of changes Δ_{B→G} (paper Definition 1).
using Delta = std::vector<DeltaOp>;

std::string delta_to_string(const Delta& delta);

/// Static description of the simulated network: links with delays.
struct Topology {
  struct Link {
    NodeName a;
    NodeName b;
    LogicalTime delay;
  };
  std::vector<Link> links;

  void connect(NodeName a, NodeName b, LogicalTime delay = 10) {
    links.push_back({std::move(a), std::move(b), delay});
  }
};

struct ReplayResult {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ProvenanceRecorder> recorder;

  [[nodiscard]] const ProvenanceGraph& graph() const {
    return recorder->graph();
  }
};

struct ReplayOptions {
  /// Selective reconstruction: record provenance only for tuples passing
  /// this filter (see ProvenanceRecorder::set_filter).
  std::function<bool(const Tuple&)> provenance_filter;
  EngineConfig engine_config;
};

/// Replays `log` (merged with `delta`) over a fresh engine and returns the
/// engine plus the reconstructed provenance. `horizon` names the tuples the
/// caller will locate: the run stops once each has appeared and the events
/// at that time are drained (Engine::run), else it runs to quiescence.
ReplayResult replay(const Program& program, const Topology& topology,
                    const EventLog& log, const Delta& delta = {},
                    const ReplayOptions& options = {},
                    const std::vector<Tuple>& horizon = {});

/// Restores a fresh engine from `checkpoint` plus the records of `log` after
/// its capture time (earlier ones are inside the checkpoint), run to
/// quiescence. Records state only, no provenance: derived tuples reconverge
/// at re-based times, so a caller that needs the original vertex times
/// replays instead.
std::unique_ptr<Engine> restore_from_checkpoint(const Program& program,
                                                const Topology& topology,
                                                const Checkpoint& checkpoint,
                                                const EventLog& log,
                                                const EngineConfig& config = {});

/// Schedules one log record into `engine` at the record's time.
void schedule_record(Engine& engine, const LogRecord& record);

}  // namespace dp
