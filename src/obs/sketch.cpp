#include "obs/sketch.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

namespace dp::obs {

namespace {

/// Keep the 11 exponent bits plus the top 6 mantissa bits: 64 linear
/// sub-buckets per octave.
constexpr int kIndexShift = 46;
/// (bits of 2^-20) >> 46: exponent field 1003, mantissa 0.
constexpr std::uint64_t kBaseIndex = 1003ull << 6;

std::uint64_t to_bits(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Lower edge of bucket 0; anything at or below it (zero, negative, NaN via
/// the negated comparison) lands in bucket 0 and relies on min() for
/// exactness.
constexpr double kMinTracked = 0x1p-20;

void update_min(std::atomic<std::uint64_t>& slot, double v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v < from_bits(cur)) {
    if (slot.compare_exchange_weak(cur, to_bits(v),
                                   std::memory_order_relaxed)) {
      break;
    }
  }
}

void update_max(std::atomic<std::uint64_t>& slot, double v) {
  std::uint64_t cur = slot.load(std::memory_order_relaxed);
  while (v > from_bits(cur)) {
    if (slot.compare_exchange_weak(cur, to_bits(v),
                                   std::memory_order_relaxed)) {
      break;
    }
  }
}

double clamp_into(double v, double lo, double hi) {
  if (v < lo) return lo;
  if (v > hi) return hi;
  return v;
}

}  // namespace

const std::vector<double>& latency_us_bounds() {
  static const std::vector<double> bounds = {
      1,    2,    5,     10,    20,    50,     100,    200,
      500,  1000, 2000,  5000,  10000, 20000,  50000,  100000,
      200000, 500000, 1000000};
  return bounds;
}

QuantileSketch::QuantileSketch()
    : min_bits_(to_bits(std::numeric_limits<double>::infinity())),
      max_bits_(to_bits(-std::numeric_limits<double>::infinity())) {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
}

std::size_t QuantileSketch::index_for(double value) {
  if (!(value > kMinTracked)) return 0;  // also catches NaN
  // Upper-inclusive buckets: an edge value (zero low mantissa bits) drops
  // into the bucket below, so `le` counts at edges are exact.
  const std::size_t raw =
      static_cast<std::size_t>((to_bits(value) - 1) >> kIndexShift);
  const std::size_t index = raw - static_cast<std::size_t>(kBaseIndex);
  return index >= kBuckets ? kBuckets - 1 : index;
}

double QuantileSketch::bucket_mid(std::size_t index) {
  const std::uint64_t lo_bits = (kBaseIndex + index) << kIndexShift;
  const std::uint64_t hi_bits = (kBaseIndex + index + 1) << kIndexShift;
  return std::sqrt(from_bits(lo_bits) * from_bits(hi_bits));
}

void QuantileSketch::observe(double value) {
  buckets_[index_for(value)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  update_min(min_bits_, value);
  update_max(max_bits_, value);
}

std::uint64_t QuantileSketch::count() const {
  std::uint64_t total = 0;
  for (const auto& bucket : buckets_) {
    total += bucket.load(std::memory_order_relaxed);
  }
  return total;
}

double QuantileSketch::min() const {
  const double v = from_bits(min_bits_.load(std::memory_order_relaxed));
  return v == std::numeric_limits<double>::infinity() ? 0 : v;
}

double QuantileSketch::max() const {
  const double v = from_bits(max_bits_.load(std::memory_order_relaxed));
  return v == -std::numeric_limits<double>::infinity() ? 0 : v;
}

namespace {

/// Value at rank ceil(q * total) over a local (consistent) bucket copy.
double quantile_over(const std::vector<std::uint64_t>& buckets,
                     std::uint64_t total, double q, double lo, double hi) {
  if (total == 0) return 0;
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  if (rank > total) rank = total;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      return clamp_into(QuantileSketch::bucket_mid(i), lo, hi);
    }
  }
  return hi;  // unreachable: seen == total >= rank by the end
}

}  // namespace

double QuantileSketch::quantile(double q) const {
  std::vector<std::uint64_t> local(kBuckets);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    local[i] = buckets_[i].load(std::memory_order_relaxed);
    total += local[i];
  }
  if (total == 0) return 0;
  return quantile_over(local, total, q,
                       from_bits(min_bits_.load(std::memory_order_relaxed)),
                       from_bits(max_bits_.load(std::memory_order_relaxed)));
}

QuantileSketch::Snapshot QuantileSketch::snapshot() const {
  std::vector<std::uint64_t> local(kBuckets);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    local[i] = buckets_[i].load(std::memory_order_relaxed);
    total += local[i];
  }
  Snapshot snap;
  snap.count = total;
  snap.sum = sum_.load(std::memory_order_relaxed);
  // Cumulative counts at each `le` bound: everything up to and including
  // the bucket the bound itself would land in.
  const std::vector<double>& bounds = latency_us_bounds();
  snap.le_counts.reserve(bounds.size());
  std::size_t next = 0;
  std::uint64_t below = 0;
  for (const double bound : bounds) {
    for (const std::size_t last = index_for(bound); next <= last; ++next) {
      below += local[next];
    }
    snap.le_counts.push_back(below);
  }
  if (total == 0) return snap;
  const double lo = from_bits(min_bits_.load(std::memory_order_relaxed));
  const double hi = from_bits(max_bits_.load(std::memory_order_relaxed));
  snap.min = lo;
  snap.max = hi;
  snap.p50 = quantile_over(local, total, 0.50, lo, hi);
  snap.p95 = quantile_over(local, total, 0.95, lo, hi);
  snap.p99 = quantile_over(local, total, 0.99, lo, hi);
  snap.p999 = quantile_over(local, total, 0.999, lo, hi);
  return snap;
}

void QuantileSketch::reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  sum_.store(0, std::memory_order_relaxed);
  min_bits_.store(to_bits(std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
  max_bits_.store(to_bits(-std::numeric_limits<double>::infinity()),
                  std::memory_order_relaxed);
}

}  // namespace dp::obs
