#include "ingest/manager.h"

#include <algorithm>

namespace dp::ingest {

IngestManager::IngestManager(ReplayOptions options,
                             obs::MetricsRegistry& registry,
                             std::function<void(std::uint64_t)> publish_bytes)
    : options_(std::move(options)),
      registry_(&registry),
      publish_bytes_(std::move(publish_bytes)),
      streams_gauge_(registry.gauge("dp.ingest.streams")),
      resident_gauge_(registry.gauge("dp.ingest.resident_bytes")) {}

std::shared_ptr<IngestStream> IngestManager::open(
    const std::string& name, Program program, Topology topology,
    std::optional<Tuple> good_event, std::optional<Tuple> bad_event) {
  std::shared_ptr<IngestStream> stream;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = streams_.find(name);
    if (it != streams_.end()) return it->second;
    stream = std::make_shared<IngestStream>(
        name, std::move(program), std::move(topology), std::move(good_event),
        std::move(bad_event), options_, *registry_);
    streams_.emplace(name, stream);
    streams_gauge_.set(static_cast<std::int64_t>(streams_.size()));
  }
  publish();
  return stream;
}

std::shared_ptr<IngestStream> IngestManager::find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = streams_.find(name);
  return it == streams_.end() ? nullptr : it->second;
}

std::size_t IngestManager::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return streams_.size();
}

std::vector<std::shared_ptr<IngestStream>> IngestManager::snapshot() const {
  std::vector<std::shared_ptr<IngestStream>> streams;
  std::lock_guard<std::mutex> lock(mutex_);
  streams.reserve(streams_.size());
  for (const auto& [name, stream] : streams_) streams.push_back(stream);
  return streams;
}

std::vector<std::pair<std::string, IngestStreamStats>> IngestManager::stats()
    const {
  std::vector<std::pair<std::string, IngestStreamStats>> out;
  for (const auto& stream : snapshot()) {
    std::lock_guard<std::mutex> lock(stream->mutex());
    out.emplace_back(stream->key(), stream->stats());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::uint64_t IngestManager::resident_bytes() const {
  std::uint64_t total = 0;
  for (const auto& stream : snapshot()) total += stream->resident_bytes();
  return total;
}

void IngestManager::publish() {
  const std::uint64_t total = resident_bytes();
  resident_gauge_.set(static_cast<std::int64_t>(total));
  if (publish_bytes_) publish_bytes_(total);
}

}  // namespace dp::ingest
