// Keyed registry of live ingest streams.
//
// The diagnosis service owns one IngestManager: `open` creates (or returns)
// the stream for a name, `find` resolves query routing, and `publish` pushes
// the summed resident bytes to the warm-budget ledger callback so ingest
// memory is billed alongside warm sessions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ingest/stream.h"

namespace dp::ingest {

class IngestManager {
 public:
  /// `publish_bytes`, when set, receives the total resident bytes across all
  /// streams after every open/publish (the service wires this to a
  /// WarmBudgetLedger slot).
  IngestManager(ReplayOptions options, obs::MetricsRegistry& registry,
                std::function<void(std::uint64_t)> publish_bytes = {});

  /// Returns the stream for `name`, creating it on first open. An existing
  /// stream is returned as-is (idempotent open); the program/topology
  /// arguments of later opens are ignored.
  std::shared_ptr<IngestStream> open(const std::string& name, Program program,
                                     Topology topology,
                                     std::optional<Tuple> good_event,
                                     std::optional<Tuple> bad_event);

  /// The stream for `name`, or nullptr.
  [[nodiscard]] std::shared_ptr<IngestStream> find(
      const std::string& name) const;

  [[nodiscard]] std::size_t size() const;

  /// Per-stream stats snapshots, sorted by name. Locks each stream briefly.
  [[nodiscard]] std::vector<std::pair<std::string, IngestStreamStats>> stats()
      const;

  /// Summed resident bytes across streams (lock-free reads of each stream's
  /// published footprint).
  [[nodiscard]] std::uint64_t resident_bytes() const;

  /// Recompute and push the resident total (gauge + ledger callback).
  void publish();

 private:
  [[nodiscard]] std::vector<std::shared_ptr<IngestStream>> snapshot() const;

  ReplayOptions options_;
  obs::MetricsRegistry* registry_;
  std::function<void(std::uint64_t)> publish_bytes_;

  mutable std::mutex mutex_;
  std::map<std::string, std::shared_ptr<IngestStream>> streams_;

  obs::Gauge& streams_gauge_;
  obs::Gauge& resident_gauge_;
};

}  // namespace dp::ingest
