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
                           ReplayOptions options,
                           obs::MetricsRegistry& registry)
    : key_(std::move(key)),
      program_(std::move(program)),
      topology_(std::move(topology)),
      good_event_(std::move(good_event)),
      bad_event_(std::move(bad_event)),
      options_(std::move(options)),
      registry_(&registry),
      events_counter_(registry.counter("dp.ingest.events")),
      rebuilds_counter_(registry.counter("dp.ingest.live_rebuilds")),
      snapshots_counter_(registry.counter("dp.ingest.snapshots")),
      snapshot_us_(registry.sketch("dp.ingest.snapshot_us")) {
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
  update_resident();
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

IngestStreamStats IngestStream::stats() const {
  IngestStreamStats snapshot = stats_;
  snapshot.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  snapshot.watermark = watermark_.load(std::memory_order_relaxed);
  return snapshot;
}

void IngestStream::update_resident() {
  // Both terms are O(1) reads; refreshed per batch and snapshot, not per
  // append.
  const std::uint64_t total =
      recorder_->graph().resident_bytes() + log_.byte_size();
  resident_bytes_.store(total > 0 ? total : 1, std::memory_order_relaxed);
}

}  // namespace dp::ingest
