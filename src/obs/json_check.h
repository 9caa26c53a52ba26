// Minimal JSON support for this codebase's wire and artifact formats:
// Chrome trace-event dumps (--trace-out), metrics dumps (--metrics-out), and
// the diffprovd newline-delimited-JSON protocol.
//
// `Json` is a strict (RFC 8259, no trailing commas) parsed value tree plus
// an escaping writer. The `check_*` helpers validate the two artifact shapes
// for tests and the obs_check CLI. This is deliberately not a general JSON
// library: no streaming, no number round-tripping guarantees beyond double.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dp::obs {

/// A parsed JSON value. Objects keep one entry per key (duplicate keys:
/// first wins, matching the previous checker behaviour).
struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  double number = 0;
  bool boolean = false;
  std::string string;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Strict parse of `text` as a single JSON value; on failure returns
  /// nullopt and sets `error` to "offset N: ...".
  static std::optional<Json> parse(std::string_view text, std::string& error);

  [[nodiscard]] const Json* find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  // Typed lookups for flat protocol objects: the value if present and of the
  // right type, else the fallback.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback = "") const;
  [[nodiscard]] double get_number(const std::string& key,
                                  double fallback = 0) const;
  [[nodiscard]] bool get_bool(const std::string& key,
                              bool fallback = false) const;
};

/// Renders `text` as a JSON string literal, quotes included: control
/// characters become \uXXXX (or the short escapes), '"' and '\\' are
/// escaped, everything else passes through byte-for-byte.
std::string json_quote(std::string_view text);

/// Strict parse of `text` as a single JSON value. Returns an error message
/// ("offset N: ...") or nullopt if well-formed.
std::optional<std::string> json_error(std::string_view text);

struct TraceCheck {
  bool ok = false;
  std::string error;
  std::size_t events = 0;
  std::set<std::string> names;  // distinct event names
};

/// Validates a Chrome trace: well-formed JSON, top-level object with a
/// "traceEvents" array whose elements each carry a string "name", a string
/// "ph" and a numeric "ts".
TraceCheck check_chrome_trace(std::string_view text);

struct MetricsCheck {
  bool ok = false;
  std::string error;
  std::size_t series = 0;       // counters + gauges + histograms
  std::set<std::string> names;  // metric names
};

/// Validates a MetricsRegistry::to_json() dump: well-formed JSON with
/// "counters"/"gauges"/"histograms" objects, plus histogram *semantics*:
/// finite "le" bounds strictly increasing and ending in "+Inf", per-bucket
/// counts summing exactly to "count", and "sum" >= 0 for latency histograms
/// (names ending in "_us" or ".us").
MetricsCheck check_metrics_json(std::string_view text);

struct PrometheusCheck {
  bool ok = false;
  std::string error;
  std::size_t series = 0;       // samples excluding histogram component lines
  std::set<std::string> names;  // metric names as exposed (mangled)
};

/// Validates a MetricsRegistry::to_prometheus() scrape (the /metrics
/// endpoint): every sample is "name[{labels}] number", every name has a
/// preceding "# TYPE", and histogram series are semantically sound --
/// "le" strictly increasing with a final +Inf bucket, *cumulative* bucket
/// counts non-decreasing and <= the "_count" sample (+Inf == count), and
/// "_sum" >= 0 for latency histograms (names ending in "_us"). Sketch
/// families (*_p50 .. *_p999, *_max, *_sketch_count) must be monotone,
/// bounded by _max, and count exactly what the same-named histogram does.
PrometheusCheck check_prometheus_text(std::string_view text);

}  // namespace dp::obs
