#include "service/cache.h"

#include "util/hash.h"

namespace dp::service {

std::string make_cache_key(std::uint64_t log_hash, const std::string& bad,
                           const std::string& reference, bool minimize,
                           std::uint64_t config_epoch) {
  return std::to_string(log_hash) + "|" + bad + "|" + reference + "|" +
         (minimize ? "min" : "raw") + "|" + std::to_string(config_epoch);
}

SharedResult ResultCache::get(const std::string& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  return it->second.result;
}

void ResultCache::put(const std::string& key, SharedResult result) {
  if (capacity_ == 0) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.result = std::move(result);
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{std::move(result), lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
}

StripedResultCache::StripedResultCache(std::size_t capacity,
                                       std::size_t stripes,
                                       obs::MetricsRegistry* registry) {
  if (stripes == 0) stripes = 1;
  // Ceil so the striped total is never below the requested capacity (a key
  // set that happens to hash into one stripe still gets a useful slice).
  const std::size_t per_stripe = (capacity + stripes - 1) / stripes;
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(capacity == 0 ? 0 : per_stripe));
    if (registry != nullptr) {
      stripes_.back()->hits = &registry->counter(
          "dp.service.cache.stripe." + std::to_string(i) + ".hits");
    }
  }
}

std::size_t StripedResultCache::stripe_of(const std::string& key) const {
  return fnv1a(key) % stripes_.size();
}

StripedResultCache::Admission StripedResultCache::admit(
    const std::string& key, SharedResult* hit,
    const std::function<void(const std::shared_ptr<void>&)>& coalesce,
    const std::function<std::shared_ptr<void>()>& enqueue_leader) {
  Stripe& stripe = stripe_for(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  if (SharedResult cached = stripe.entries.get(key)) {
    if (stripe.hits != nullptr) stripe.hits->inc();
    if (hit != nullptr) *hit = std::move(cached);
    return Admission::kHit;
  }
  if (auto it = stripe.inflight.find(key); it != stripe.inflight.end()) {
    coalesce(it->second);
    return Admission::kCoalesced;
  }
  std::shared_ptr<void> leader = enqueue_leader();
  if (leader == nullptr) return Admission::kShed;
  stripe.inflight.emplace(key, std::move(leader));
  return Admission::kAccepted;
}

void StripedResultCache::complete(const std::string& key,
                                  SharedResult result) {
  Stripe& stripe = stripe_for(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  // Publish before dropping the in-flight entry (one critical section): a
  // duplicate submitted from here on hits the cache, one submitted before
  // this coalesced onto the leader -- no window starts a second run.
  stripe.entries.put(key, std::move(result));
  stripe.inflight.erase(key);
}

std::shared_ptr<void> StripedResultCache::take_inflight(
    const std::string& key) {
  Stripe& stripe = stripe_for(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  auto it = stripe.inflight.find(key);
  if (it == stripe.inflight.end()) return nullptr;
  std::shared_ptr<void> leader = std::move(it->second);
  stripe.inflight.erase(it);
  return leader;
}

SharedResult StripedResultCache::get(const std::string& key) {
  Stripe& stripe = stripe_for(key);
  std::lock_guard<std::mutex> lock(stripe.mutex);
  SharedResult cached = stripe.entries.get(key);
  if (cached && stripe.hits != nullptr) stripe.hits->inc();
  return cached;
}

std::size_t StripedResultCache::size() const {
  std::size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    total += stripe->entries.size();
  }
  return total;
}

std::uint64_t StripedResultCache::evictions() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mutex);
    total += stripe->entries.evictions();
  }
  return total;
}

}  // namespace dp::service
