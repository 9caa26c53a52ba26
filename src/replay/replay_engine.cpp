#include "replay/replay_engine.h"

#include "obs/obs.h"

namespace dp {

std::string DeltaOp::to_string() const {
  return (kind == Kind::kInsert ? "+ " : "- ") + tuple.to_string() + " @" +
         std::to_string(at);
}

std::string delta_to_string(const Delta& delta) {
  std::string out;
  for (const DeltaOp& op : delta) {
    out += "  " + op.to_string() + "\n";
  }
  return out;
}

ReplayResult replay(const Program& program, const Topology& topology,
                    const EventLog& log, const Delta& delta,
                    const ReplayOptions& options,
                    const std::vector<Tuple>& horizon) {
  DP_SPAN_CAT("dp.replay.replay", "replay");
  obs::default_registry().counter("dp.replay.replays").inc();
  ReplayResult result;
  result.engine = std::make_unique<Engine>(program, options.engine_config);
  result.recorder = std::make_unique<ProvenanceRecorder>();
  if (options.provenance_filter) {
    result.recorder->set_filter(options.provenance_filter);
  }
  for (const Topology::Link& link : topology.links) {
    result.engine->add_link(link.a, link.b, link.delay);
  }
  result.engine->add_observer(result.recorder.get());

  for (const LogRecord& record : log.records()) {
    schedule_record(*result.engine, record);
  }
  for (const DeltaOp& op : delta) {
    if (op.kind == DeltaOp::Kind::kInsert) {
      result.engine->schedule_insert(op.tuple, op.at);
    } else {
      result.engine->schedule_delete(op.tuple, op.at);
    }
  }

  result.engine->run(horizon);
  // The recorder's graph publishes alongside the engine: into the shared
  // registry when the caller wired one up, else the process-wide one.
  obs::MetricsRegistry& registry = options.engine_config.metrics != nullptr
                                       ? *options.engine_config.metrics
                                       : obs::default_registry();
  result.recorder->graph().publish_metrics(registry);
  return result;
}

std::unique_ptr<Engine> restore_from_checkpoint(const Program& program,
                                                const Topology& topology,
                                                const Checkpoint& checkpoint,
                                                const EventLog& log,
                                                const EngineConfig& config) {
  auto engine = std::make_unique<Engine>(program, config);
  for (const Topology::Link& link : topology.links) {
    engine->add_link(link.a, link.b, link.delay);
  }
  const LogicalTime at = checkpoint.captured_at();
  for (const Tuple& tuple : checkpoint.base_tuples()) {
    engine->schedule_insert(tuple, at);
  }
  for (const LogRecord& record : log.records()) {
    if (record.time > at) schedule_record(*engine, record);
  }
  engine->run();
  return engine;
}

void schedule_record(Engine& engine, const LogRecord& record) {
  if (record.op == LogRecord::Op::kInsert) {
    engine.schedule_insert(record.tuple(), record.time);
  } else {
    engine.schedule_delete(record.tuple(), record.time);
  }
}

}  // namespace dp
