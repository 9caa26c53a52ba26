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
                    const std::vector<Tuple>& horizon,
                    const ReplayPauses& pauses) {
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
  schedule_delta(*result.engine, delta);

  RunPauses engine_pauses;
  if (pauses.every != 0) {
    engine_pauses.every = pauses.every;
    engine_pauses.at = [&result, &pauses] {
      pauses.at(*result.engine, *result.recorder);
    };
  }
  result.engine->run(horizon, engine_pauses);
  publish_graph(result.recorder->graph(), options);
  return result;
}

void schedule_delta(Engine& engine, const Delta& delta) {
  for (const DeltaOp& op : delta) {
    if (op.kind == DeltaOp::Kind::kInsert) {
      engine.schedule_insert(op.tuple, op.at);
    } else {
      engine.schedule_delete(op.tuple, op.at);
    }
  }
}

void publish_graph(ProvenanceGraph& graph, const ReplayOptions& options) {
  graph.publish_metrics(options.engine_config.metrics != nullptr
                            ? *options.engine_config.metrics
                            : obs::default_registry());
}

void schedule_record(Engine& engine, const LogRecord& record) {
  if (record.op == LogRecord::Op::kInsert) {
    engine.schedule_insert(record.tuple(), record.time);
  } else {
    engine.schedule_delete(record.tuple(), record.time);
  }
}

}  // namespace dp
