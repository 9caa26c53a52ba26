#include "ingest/stream.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "util/hash.h"

namespace dp::ingest {
namespace {

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

IngestStream::IngestStream(std::string key, Program program, Topology topology,
                           std::optional<Tuple> good_event,
                           std::optional<Tuple> bad_event,
                           ReplayOptions options, IngestOptions ingest,
                           obs::MetricsRegistry& registry)
    : key_(std::move(key)),
      program_(std::move(program)),
      topology_(std::move(topology)),
      good_event_(std::move(good_event)),
      bad_event_(std::move(bad_event)),
      options_(std::move(options)),
      ingest_(ingest),
      registry_(&registry),
      events_counter_(registry.counter("dp.ingest.events")),
      epochs_counter_(registry.counter("dp.ingest.epochs_sealed")),
      segments_gauge_(registry.gauge("dp.ingest.segments")),
      checkpoints_counter_(registry.counter("dp.ingest.checkpoints")),
      compactions_counter_(registry.counter("dp.ingest.compactions")),
      compacted_counter_(registry.counter("dp.ingest.segments_compacted")),
      truncated_segments_counter_(
          registry.counter("dp.ingest.truncated_segments")),
      truncated_bytes_counter_(registry.counter("dp.ingest.truncated_bytes")),
      rebuilds_counter_(registry.counter("dp.ingest.live_rebuilds")),
      snapshots_counter_(registry.counter("dp.ingest.snapshots")),
      snapshot_us_(registry.sketch("dp.ingest.snapshot_us")) {
  if (ingest_.epoch_events == 0) ingest_.epoch_events = 1;
  engine_ = std::make_shared<Engine>(program_, options_.engine_config);
  recorder_ = std::make_shared<ProvenanceRecorder>();
  if (options_.provenance_filter) {
    recorder_->set_filter(options_.provenance_filter);
  }
  for (const Topology::Link& link : topology_.links) {
    engine_->add_link(link.a, link.b, link.delay);
  }
  engine_->add_observer(recorder_.get());
}

std::size_t IngestStream::append_text(std::string_view text) {
  // Validate the whole batch before applying any of it: parse errors carry
  // the line number (EventLog::from_text), order errors the offending time.
  const EventLog batch = EventLog::from_text(text);
  LogicalTime previous = watermark_.load(std::memory_order_relaxed);
  for (const LogRecord& record : batch.records()) {
    if (record.time < previous) {
      throw std::runtime_error(
          "ingest: out-of-order event at t=" + std::to_string(record.time) +
          " behind stream watermark t=" + std::to_string(previous));
    }
    previous = record.time;
  }
  for (const LogRecord& record : batch.records()) append(record);
  return batch.size();
}

void IngestStream::append(const LogRecord& record) {
  const LogicalTime watermark = watermark_.load(std::memory_order_relaxed);
  if (record.time < watermark) {
    throw std::runtime_error(
        "ingest: out-of-order event at t=" + std::to_string(record.time) +
        " behind stream watermark t=" + std::to_string(watermark));
  }
  feed_live(record);
  log_.append(record);
  watermark_.store(record.time, std::memory_order_relaxed);
  const std::uint64_t mixed =
      hash_mix(hash_mix(hash_mix(hash_.load(std::memory_order_relaxed),
                                 static_cast<std::uint64_t>(record.op)),
                        static_cast<std::uint64_t>(record.time)),
               static_cast<std::uint64_t>(record.tuple_ref));
  hash_.store(mixed, std::memory_order_relaxed);
  ++stats_.events;
  events_counter_.inc();
  if (++open_records_ >= ingest_.epoch_events) seal_epoch();
}

void IngestStream::feed_live(const LogRecord& record) {
  if (stale_live_) return;  // live tier already pending rebuild
  if (quiesced_ && record.time <= engine_->now()) {
    // The snapshot ran the engine past this event's time; processing it now
    // would order it after derivations a batch replay puts behind it. Stop
    // feeding the live engine -- the next snapshot rebuilds from the log.
    stale_live_ = true;
    run_.reset();
    return;
  }
  // Batch equivalence (see header): advance to t-1 so every earlier event's
  // consequences with time < t are settled, then schedule at t. The
  // external seq band orders this event before any equal-time derivation.
  // Only advance when the engine is actually behind: a run of same-time
  // appends then stays queued and drains in one run_until (at the next
  // advance or snapshot), instead of paying a run_until + metrics publish
  // per append.
  if (record.time > 0 && engine_->now() < record.time - 1) {
    engine_->run_until(record.time - 1);
  }
  schedule_record(*engine_, record);
  quiesced_ = false;
}

void IngestStream::seal() {
  if (open_records_ > 0) seal_epoch();
}

void IngestStream::seal_epoch() {
  DP_SPAN_CAT("dp.ingest.seal", "ingest");
  EventLog epoch_log;
  for (std::size_t i = open_start_; i < log_.size(); ++i) {
    epoch_log.append(log_.records()[i]);
  }
  auto segment = std::make_shared<const LogSegment>(
      sealed_epochs_, sealed_epochs_, std::move(epoch_log));
  segment_bytes_ += segment->byte_size();
  segments_.push_back(std::move(segment));
  segments_gauge_.add(1);
  ++sealed_epochs_;
  epochs_counter_.inc();
  open_start_ = log_.size();
  open_records_ = 0;

  if (ingest_.checkpoint_every_epochs > 0 &&
      sealed_epochs_ % ingest_.checkpoint_every_epochs == 0 && !stale_live_) {
    // Capture at the live horizon: base events still in flight (time >
    // now()) are not in the tables, but bootstrap replays every segment
    // record behind the capture point, so they are re-scheduled there.
    DP_SPAN_CAT("dp.ingest.checkpoint", "ingest");
    checkpoint_ = Checkpoint::capture(*engine_);
    checkpoint_epoch_ = sealed_epochs_;
    ++stats_.checkpoints;
    checkpoints_counter_.inc();
  }
  update_resident();
}

std::shared_ptr<const BadRun> IngestStream::ensure_current(bool* rebuilt) {
  DP_SPAN_CAT("dp.ingest.snapshot", "ingest");
  const std::uint64_t started = now_us();
  bool did_rebuild = false;
  if (stale_live_) {
    rebuild_live();
    did_rebuild = true;
  } else {
    engine_->run();  // drain in-flight events; O(1) when already quiescent
  }
  quiesced_ = true;
  if (run_ == nullptr) {
    auto run = std::make_shared<BadRun>();
    run->graph =
        std::shared_ptr<const ProvenanceGraph>(recorder_, &recorder_->graph());
    run->state = std::make_shared<EngineStateView>(engine_);
    run_ = std::move(run);
  }
  recorder_->graph().publish_metrics(*registry_);
  ++stats_.snapshots;
  snapshots_counter_.inc();
  snapshot_us_.observe(static_cast<double>(now_us() - started));
  update_resident();
  if (rebuilt != nullptr) *rebuilt = did_rebuild;
  return run_;
}

void IngestStream::rebuild_live() {
  DP_SPAN_CAT("dp.ingest.live_rebuild", "ingest");
  ReplayResult result = replay(program_, topology_, log_, {}, options_);
  engine_ = std::move(result.engine);
  recorder_ = std::move(result.recorder);
  run_.reset();
  stale_live_ = false;
  ++stats_.live_rebuilds;
  rebuilds_counter_.inc();
}

void IngestStream::maintain(bool under_pressure) {
  // Truncation first: once a checkpoint covers a segment (every record at or
  // before the capture point), the segment is only needed as bootstrap
  // grace; drop from the oldest end, keeping `retain_epochs` covered epochs
  // resident (none under memory pressure). Whole segments only -- a merged
  // segment straddling the boundary stays.
  if (checkpoint_) {
    const LogicalTime covered_until = checkpoint_->captured_at();
    std::size_t covered = 0;
    for (const auto& segment : segments_) {
      if (segment->last_time() > covered_until) break;
      covered += segment->epochs();
    }
    const std::size_t keep = under_pressure ? 0 : ingest_.retain_epochs;
    std::size_t remaining = covered;
    std::size_t drop = 0;
    while (drop < segments_.size()) {
      const LogSegment& segment = *segments_[drop];
      if (segment.last_time() > covered_until) break;
      if (remaining < keep + segment.epochs()) break;  // retention floor
      remaining -= segment.epochs();
      segment_bytes_ -= segment.byte_size();
      stats_.truncated_bytes += segment.byte_size();
      truncated_bytes_counter_.inc(segment.byte_size());
      ++stats_.truncated_segments;
      truncated_segments_counter_.inc();
      ++drop;
    }
    if (drop > 0) {
      segments_.erase(segments_.begin(),
                      segments_.begin() + static_cast<std::ptrdiff_t>(drop));
      segments_gauge_.add(-static_cast<std::int64_t>(drop));
    }
  }

  // Compaction: merge the oldest adjacent pair until the resident count is
  // at the watermark. Truncation only ever removes a prefix, so the
  // remaining segments always form an adjacent epoch chain.
  if (ingest_.compact_watermark > 0 &&
      segments_.size() > ingest_.compact_watermark) {
    DP_SPAN_CAT("dp.ingest.compact", "ingest");
    bool merged_any = false;
    while (segments_.size() > ingest_.compact_watermark &&
           segments_.size() >= 2) {
      auto merged = std::make_shared<const LogSegment>(
          LogSegment::merge(*segments_[0], *segments_[1]));
      segment_bytes_ -= segments_[0]->byte_size();
      segment_bytes_ -= segments_[1]->byte_size();
      segment_bytes_ += merged->byte_size();
      segments_[0] = std::move(merged);
      segments_.erase(segments_.begin() + 1);
      segments_gauge_.add(-1);
      ++stats_.segments_compacted;
      compacted_counter_.inc();
      merged_any = true;
    }
    if (merged_any) {
      ++stats_.compactions;
      compactions_counter_.inc();
    }
  }
  update_resident();
}

void IngestStream::write_bootstrap(std::ostream& out) const {
  if (checkpoint_) {
    write_checkpoint_block(out, *checkpoint_, checkpoint_epoch_);
  }
  for (const auto& segment : segments_) segment->serialize(out);
}

IngestStreamStats IngestStream::stats() const {
  IngestStreamStats snapshot = stats_;
  snapshot.sealed_epochs = sealed_epochs_;
  snapshot.open_records = open_records_;
  snapshot.segments = segments_.size();
  snapshot.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  snapshot.watermark = watermark_.load(std::memory_order_relaxed);
  return snapshot;
}

void IngestStream::update_resident() {
  // Refreshed at seal/snapshot/maintenance granularity, not per append.
  const std::uint64_t graph_bytes = recorder_->graph().resident_bytes();
  const std::uint64_t total = graph_bytes + log_.byte_size() + segment_bytes_;
  resident_bytes_.store(total > 0 ? total : 1, std::memory_order_relaxed);
}

}  // namespace dp::ingest
