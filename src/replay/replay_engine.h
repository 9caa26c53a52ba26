// Deterministic replay (paper sections 5 and 4.6/4.8).
//
// Given a program, a topology, and the base-event log, `replay` re-executes
// the system and reconstructs its provenance graph. A Delta -- the set of
// base-tuple changes DiffProv is experimenting with -- can be injected into
// the replayed stream; this is the "clone the state, apply the change, roll
// forward" operation of section 4.6, realized as replay (the clone never
// touches the running system). Delta operations are applied "shortly before
// they are needed": the caller sets each op's time. Section 4.8's
// checkpoints are Engine::fork() copies taken at a replay's pauses
// (LogReplayProvider's fork points, diffprov.h).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "provenance/recorder.h"
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

/// Where a replay pauses (RunPauses) to hand `at` its engine and
/// recorder as they stand: at time-step boundaries, every `every` events.
struct ReplayPauses {
  std::uint64_t every = 0;  // 0: never pause
  std::function<void(const Engine&, const ProvenanceRecorder&)> at;
};

/// Replays `log` (merged with `delta`) over a fresh engine and returns the
/// engine plus the reconstructed provenance. `horizon` names the tuples the
/// caller will locate: the run stops once each has appeared and the events
/// at that time are drained (Engine::run), else it runs to quiescence.
ReplayResult replay(const Program& program, const Topology& topology,
                    const EventLog& log, const Delta& delta = {},
                    const ReplayOptions& options = {},
                    const std::vector<Tuple>& horizon = {},
                    const ReplayPauses& pauses = {});

/// Schedules Δ's operations into `engine`, in delta order (after the log's
/// records, so their external seqs follow the log's).
void schedule_delta(Engine& engine, const Delta& delta);

/// Publishes a finished replay's graph alongside its engine: into the
/// shared registry when the options wired one up, else the process-wide one.
void publish_graph(ProvenanceGraph& graph, const ReplayOptions& options);

/// Schedules one log record into `engine` at the record's time.
void schedule_record(Engine& engine, const LogRecord& record);

}  // namespace dp
