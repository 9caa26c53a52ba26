#include "replay/checkpoint.h"

#include <stdexcept>

#include "replay/event_log.h"

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

void Checkpoint::serialize(std::ostream& out) const {
  EventLog log;
  for (const Tuple& t : tuples_) {
    log.append_insert(t, captured_at_);
  }
  log.serialize(out);
}

Checkpoint Checkpoint::deserialize(std::istream& in) {
  // Reuses the event-log record format; EventLog::deserialize reports
  // truncation/corruption with the offending byte offset. On top of that, a
  // checkpoint is a *snapshot*: every record must be an insert, and all
  // records must share one capture time -- anything else is not a checkpoint
  // that `capture` could have produced, so reject it instead of restoring a
  // half-meaningful state.
  const EventLog log = EventLog::deserialize(in);
  Checkpoint checkpoint;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < log.records().size(); ++i) {
    const LogRecord& record = log.records()[i];
    if (record.op != LogRecord::Op::kInsert) {
      throw std::runtime_error(
          "checkpoint: record " + std::to_string(i) +
          " is a delete (byte offset " + std::to_string(offset) +
          "); checkpoints hold only live base tuples");
    }
    if (i > 0 && record.time != checkpoint.captured_at_) {
      throw std::runtime_error(
          "checkpoint: record " + std::to_string(i) + " captured at t=" +
          std::to_string(record.time) + " but the checkpoint was captured at t=" +
          std::to_string(checkpoint.captured_at_) + " (byte offset " +
          std::to_string(offset) + ")");
    }
    checkpoint.captured_at_ = record.time;
    checkpoint.tuples_.push_back(record.tuple());
    offset += EventLog::record_size(record);
  }
  return checkpoint;
}

}  // namespace dp
