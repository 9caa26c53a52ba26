#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

/// Log-bucketed quantile sketch (DDSketch-family): the one latency
/// instrument. Every latency site observes a sketch once; the registry
/// renders it both as quantile gauges and as a Prometheus histogram family
/// over latency_us_bounds().
///
/// The sketch keeps one counter per geometric bucket at most 1.6% wide, so any
/// quantile is recoverable with bounded *relative* error -- the property that
/// matters for tail latencies, where p99 may be 1000x p50.
///
/// Design constraints:
///   - observe() is lock-free: one relaxed fetch_add on the bucket, one on
///     the exact sum, plus a min/max CAS that almost never retries (the
///     total count is derived by summing buckets on the read side). Safe
///     from any thread, any time.
///   - Buckets are derived from the double's bit pattern (exponent + top six
///     mantissa bits), so indexing costs a shift, not a std::log call.
///
/// Bucket geometry: 64 sub-buckets per octave over [2^-20, 2^44), i.e. 4096
/// buckets spanning sub-microsecond to ~200 days when values are in
/// microseconds. Within an octave the sub-buckets are linear (HdrHistogram
/// style); the worst-case bucket width ratio is 1 + 1/64, and reporting the
/// geometric midpoint of a bucket bounds the relative error at
/// sqrt(1 + 1/64) - 1 < 0.8%, comfortably under the 1% target. Buckets are
/// upper-inclusive, (lo, hi], so a Prometheus `le` bound on a bucket edge
/// counts exactly the values <= it: the latency bounds 1 us .. 2 ms are all
/// edges, and the larger ones sit inside a bucket (their counts are those
/// of a bound at most 1.6% higher). Values outside the covered range clamp
/// to the edge buckets (the min/max fields stay exact, and quantile() clamps
/// into [min, max], so a clamped outlier can shift a quantile by at most one
/// bucket, never invent a value).
namespace dp::obs {

/// The Prometheus `le` bounds every sketch's histogram family is rendered
/// over (microsecond latencies, 1 us .. 1 s, log-ish).
const std::vector<double>& latency_us_bounds();

class QuantileSketch {
 public:
  /// Guaranteed bound on |estimate - exact| / exact for quantiles of values
  /// within the covered range. sqrt(1 + 1/64) - 1 rounded up.
  static constexpr double kMaxRelativeError = 0.008;

  QuantileSketch();

  QuantileSketch(const QuantileSketch&) = delete;
  QuantileSketch& operator=(const QuantileSketch&) = delete;

  /// Records one value. Lock-free; any thread.
  void observe(double value);

  /// Total observations (one pass over the buckets; read-side only).
  std::uint64_t count() const;
  /// Exact sum of every observed value.
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Exact smallest / largest observed value; 0 when empty.
  double min() const;
  double max() const;

  /// Value at quantile q in [0, 1]; 0 when empty. Clamped into [min, max]
  /// so q=0 / q=1 are exact and bucket midpoints never exceed the observed
  /// range.
  double quantile(double q) const;

  /// One consistent pass over the buckets for exporters: the count, the
  /// quantiles and the `le` counts all come from the same bucket copy, so a
  /// scrape racing concurrent observes is still self-consistent (the +Inf
  /// bucket, _count and _sketch_count are one number).
  struct Snapshot {
    std::uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    double p50 = 0;
    double p95 = 0;
    double p99 = 0;
    double p999 = 0;
    /// Observations <= each latency_us_bounds() entry (cumulative).
    std::vector<std::uint64_t> le_counts;
  };
  Snapshot snapshot() const;

  /// Forgets everything. Not linearizable against concurrent observe();
  /// callers quiesce first (test/bench hygiene).
  void reset();

  /// Number of buckets (exposed for tests).
  static constexpr std::size_t kBuckets = 4096;

  /// Geometric midpoint of a bucket -- the representative every value in the
  /// bucket is reported as. Exposed for the relative-error property test.
  static double bucket_mid(std::size_t index);

 private:
  static std::size_t index_for(double value);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_;
  std::atomic<double> sum_{0};
  /// Bit patterns of the extreme values (CAS loop compares as doubles, so
  /// ordering is correct for any mix of signs). min at +inf doubles as the
  /// "never observed" sentinel for min()/max().
  std::atomic<std::uint64_t> min_bits_;
  std::atomic<std::uint64_t> max_bits_;
};

}  // namespace dp::obs
