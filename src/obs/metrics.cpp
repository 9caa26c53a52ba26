#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

namespace dp::obs {

namespace {

/// JSON-safe number formatting (no locale, fixed precision for doubles).
std::string json_number(double v) {
  if (std::isfinite(v) && v == static_cast<double>(static_cast<long long>(v)) &&
      std::fabs(v) < 9e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

QuantileSketch& MetricsRegistry::sketch(const std::string& name) {
  std::lock_guard lock(mutex_);
  auto& slot = sketches_[name];
  if (!slot) slot = std::make_unique<QuantileSketch>();
  return *slot;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, s] : sketches_) s->reset();
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mutex_);
  return counters_.size() + gauges_.size() + sketches_.size();
}

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " counter\n" << p << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string p = prometheus_name(name);
    out << "# TYPE " << p << " gauge\n" << p << " " << g->value() << "\n";
  }
  // Each sketch renders from one snapshot, so the +Inf bucket, _count and
  // _sketch_count are the same number even while observes race the scrape.
  const std::vector<double>& bounds = latency_us_bounds();
  for (const auto& [name, s] : sketches_) {
    const std::string p = prometheus_name(name);
    const QuantileSketch::Snapshot snap = s->snapshot();
    out << "# TYPE " << p << " histogram\n";
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out << p << "_bucket{le=\"" << json_number(bounds[i]) << "\"} "
          << snap.le_counts[i] << "\n";
    }
    out << p << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    out << p << "_sum " << json_number(snap.sum) << "\n";
    out << p << "_count " << snap.count << "\n";
    const std::pair<const char*, double> quantiles[] = {
        {"_p50", snap.p50},   {"_p95", snap.p95}, {"_p99", snap.p99},
        {"_p999", snap.p999}, {"_max", snap.max},
    };
    for (const auto& [suffix, value] : quantiles) {
      out << "# TYPE " << p << suffix << " gauge\n"
          << p << suffix << " " << json_number(value) << "\n";
    }
    out << "# TYPE " << p << "_sketch_count counter\n"
        << p << "_sketch_count " << snap.count << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << c->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": " << g->value();
    first = false;
  }
  std::vector<QuantileSketch::Snapshot> snaps;
  snaps.reserve(sketches_.size());
  for (const auto& [name, s] : sketches_) snaps.push_back(s->snapshot());
  const std::vector<double>& bounds = latency_us_bounds();
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  std::size_t i = 0;
  for (const auto& [name, s] : sketches_) {
    const QuantileSketch::Snapshot& snap = snaps[i++];
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << snap.count
        << ", \"sum\": " << json_number(snap.sum) << ", \"buckets\": [";
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < bounds.size(); ++b) {
      out << "{\"le\": " << json_number(bounds[b])
          << ", \"count\": " << snap.le_counts[b] - below << "}, ";
      below = snap.le_counts[b];
    }
    out << "{\"le\": \"+Inf\", \"count\": " << snap.count - below << "}]}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"sketches\": {";
  first = true;
  i = 0;
  for (const auto& [name, s] : sketches_) {
    const QuantileSketch::Snapshot& snap = snaps[i++];
    out << (first ? "\n" : ",\n") << "    \"" << json_escape(name)
        << "\": {\"count\": " << snap.count
        << ", \"min\": " << json_number(snap.min)
        << ", \"max\": " << json_number(snap.max)
        << ", \"p50\": " << json_number(snap.p50)
        << ", \"p95\": " << json_number(snap.p95)
        << ", \"p99\": " << json_number(snap.p99)
        << ", \"p999\": " << json_number(snap.p999) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

std::string MetricsRegistry::to_text() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-48s %20llu\n", name.c_str(),
                  static_cast<unsigned long long>(c->value()));
    out << buf;
  }
  for (const auto& [name, g] : gauges_) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-48s %20lld\n", name.c_str(),
                  static_cast<long long>(g->value()));
    out << buf;
  }
  for (const auto& [name, s] : sketches_) {
    const QuantileSketch::Snapshot snap = s->snapshot();
    const double mean = snap.count == 0 ? 0 : snap.sum / snap.count;
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "  %-48s count=%llu sum=%.1f mean=%.2f p50=%.1f p95=%.1f "
                  "p99=%.1f p999=%.1f max=%.1f\n",
                  name.c_str(), static_cast<unsigned long long>(snap.count),
                  snap.sum, mean, snap.p50, snap.p95, snap.p99, snap.p999,
                  snap.max);
    out << buf;
  }
  return out.str();
}

MetricsRegistry& default_registry() {
  static MetricsRegistry registry;
  return registry;
}

std::string sanitize_metric_segment(std::string_view segment) {
  std::string out(segment);
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

}  // namespace dp::obs
