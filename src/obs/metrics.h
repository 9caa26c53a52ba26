// Metrics registry: named counters, gauges and latency sketches.
//
// Naming scheme: `dp.<layer>.<name>` (e.g. dp.runtime.tuples_scanned,
// dp.prov.vertex.derive, dp.diffprov.rounds). Dots become underscores in the
// Prometheus dump, which forbids them in metric names.
//
// All instruments are updatable from multiple threads (relaxed atomics); the
// registry itself serializes creation/enumeration with a mutex. Hot paths
// should look an instrument up once and keep the reference -- lookups take
// the registry lock, updates never do.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "obs/sketch.h"

namespace dp::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  /// set(v) only if v exceeds the current value (high-water mark). Racy
  /// max -- good enough for diagnostics, never below any single observation
  /// made after the last reset by the calling thread.
  void set_max(std::int64_t v) {
    std::int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates. References stay valid for the registry's lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Latency sketch (sketch.h), e.g. dp.service.exec_us. Exported as a
  /// Prometheus histogram (<name>_bucket{le} over latency_us_bounds(),
  /// _sum, _count), <name>_p50/_p95/_p99/_p999/_max gauges and
  /// <name>_sketch_count -- all rendered from one snapshot.
  QuantileSketch& sketch(const std::string& name);

  /// Zeroes every instrument (the instruments survive; references stay
  /// valid).
  void reset();

  [[nodiscard]] std::size_t size() const;

  /// Prometheus text exposition format ('.' in names becomes '_').
  [[nodiscard]] std::string to_prometheus() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  ///  buckets: [{le, count}...]}}, "sketches": {name: {count, min, max, p50,
  ///  p95, p99, p999}}} -- every sketch appears in both sections; bucket
  ///  counts are per bucket and the +Inf bound is the string "+Inf".
  [[nodiscard]] std::string to_json() const;
  /// Human-readable table for --stats.
  [[nodiscard]] std::string to_text() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<QuantileSketch>> sketches_;
};

/// The process-wide registry: the provenance and diffprov layers publish
/// here; the CLI dumps it via --metrics-out / --stats. Engines default to a
/// private registry but can be pointed here (EngineConfig::metrics).
MetricsRegistry& default_registry();

/// Replaces characters outside [A-Za-z0-9_.] with '_' (for metric-name
/// segments built from rule or node names).
std::string sanitize_metric_segment(std::string_view segment);

}  // namespace dp::obs
