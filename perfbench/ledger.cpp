// Statistics, the span recorder and the per-layer ledger.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <numeric>
#include <set>

#include "common.h"
#include "store/store.h"

namespace perfbench {

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double balanced_median(
    const std::map<std::string, std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const auto& [name, values] : groups) {
    if (!values.empty()) medians.push_back(median(values));
  }
  return mean(medians);
}

double loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(std::max(y[i], 1e-9));
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  return denom == 0 ? 0 : (static_cast<double>(n) * sxy - sx * sy) / denom;
}

// --- tracer ------------------------------------------------------------------

int Tracer::begin(const std::string& layer, const std::string& name,
                  int diagnosis) {
  if (!enabled_) return -1;
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_ms = now_ms();
  span.parent = open_.empty() ? -1 : open_.back();
  span.diagnosis = diagnosis >= 0 || span.parent < 0
                       ? diagnosis
                       : spans_[static_cast<std::size_t>(span.parent)].diagnosis;
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = now_ms();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

int Tracer::add(const std::string& layer, const std::string& name,
                double start_ms, double end_ms, int parent, int diagnosis) {
  if (!enabled_) return -1;
  spans_.push_back({layer, name, start_ms, end_ms, parent, diagnosis});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(std::move(span));
  }
}

void split_replay_spans(Tracer& tracer, double runtime_share) {
  if (runtime_share <= 0) return;
  const std::size_t count = tracer.spans().size();
  for (std::size_t i = 0; i < count; ++i) {
    const Span s = tracer.spans()[i];  // copy: add() may reallocate
    if (s.layer != "replay" ||
        (s.name != "replay" && s.name != "update_replay" && s.name != "warm_replay")) {
      continue;
    }
    const double split = s.start_ms + runtime_share * (s.end_ms - s.start_ms);
    const int parent = static_cast<int>(i);
    tracer.add("runtime", "engine", s.start_ms, split, parent, s.diagnosis);
    tracer.add("provenance", "record", split, s.end_ms, parent, s.diagnosis);
  }
}

namespace {

/// Self time per layer for each diagnosis root, in ms: diagnosis id ->
/// layer -> self ms. A root's own self time (work between layer calls) is
/// reported under "" and is what trace.coverage leaves unexplained.
std::map<int, std::map<std::string, double>> self_times(
    const std::vector<Span>& spans) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::map<int, std::map<std::string, double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.diagnosis < 0) continue;
    const double self = std::max(0.0, span.end_ms - span.start_ms - child_ms[i]);
    out[span.diagnosis][span.layer] += self;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void write_spans(const std::vector<Span>& spans, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "[\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\",\"start_ms\":%.4f,"
                  "\"end_ms\":%.4f,\"parent\":%d,\"diagnosis\":%d}",
                  i, json_escape(s.layer).c_str(), json_escape(s.name).c_str(),
                  s.start_ms, s.end_ms, s.parent, s.diagnosis);
    out << line << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

void add_ledger_metrics(Result& result, const std::vector<Span>& spans,
                        const std::map<int, std::string>& group_of,
                        double untraced_p50_ms, double traced_p50_ms,
                        bool balanced) {
  const auto per_diagnosis = self_times(spans);
  const auto statistic = [&](const std::string& layer) {
    std::map<std::string, std::vector<double>> groups;
    std::vector<double> all;
    for (const auto& [id, layers] : per_diagnosis) {
      const auto group = group_of.find(id);
      if (group == group_of.end()) continue;
      double value = 0;
      if (layer == "*") {
        for (const auto& [name, ms] : layers) {
          if (!name.empty()) value += ms;
        }
      } else {
        const auto it = layers.find(layer);
        value = it == layers.end() ? 0 : it->second;
      }
      groups[group->second].push_back(value);
      all.push_back(value);
    }
    return balanced ? balanced_median(groups) : median(all);
  };
  for (const std::string& layer : layer_names()) {
    result.add(layer + ".self_ms", statistic(layer), "ms");
  }
  const double covered = statistic("*");
  result.add("trace.coverage",
             untraced_p50_ms > 0 ? covered / untraced_p50_ms : 0, "ratio");
  result.add("trace.overhead_frac",
             untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1 : 0,
             "ratio");
  char line[256];
  std::snprintf(line, sizeof line,
                "ledger: covered %.3f ms of untraced p50 %.3f ms (traced p50 "
                "%.3f ms) over %zu traced diagnoses",
                covered, untraced_p50_ms, traced_p50_ms, group_of.size());
  result.note(line);
  for (const std::string& layer : layer_names()) {
    std::snprintf(line, sizeof line, "  %-11s %10.3f ms self", layer.c_str(),
                  statistic(layer));
    result.note(line);
  }
}

void add_store_tuples(Result& result) {
  result.add("store.tuples", static_cast<double>(dp::global_store().size()), "count");
}

void fill_missing_layer_metrics(Result& result) {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"replay.decode_ms", "ms"},
      {"replay.replay_ms", "ms"},
      {"runtime.run_ms", "ms"},
      {"runtime.ns_per_event", "ns"},
      {"runtime.events", "count"},
      {"runtime.derivations", "count"},
      {"runtime.probes_per_event", "ratio"},
      {"runtime.match_ratio", "ratio"},
      {"runtime.scale_slope", "ratio"},
      {"provenance.record_ms", "ms"},
      {"provenance.vertices_per_event", "ratio"},
      {"provenance.graph_mb", "MB"},
      {"provenance.locate_ms", "ms"},
      {"diffprov.replays", "count"},
      {"diffprov.update_replay_ms", "ms"},
      {"diffprov.reasoning_ms", "ms"},
      {"diffprov.rounds", "count"},
      {"service.submit_us_p50", "us"},
      {"service.queue_ms_p50", "ms"},
      {"service.exec_ms_p50", "ms"},
      {"service.diagnose_ms_p90", "ms"},
      {"service.cache_hit_frac", "ratio"},
      {"service.shed_frac", "ratio"},
      {"service.coalesced_frac", "ratio"},
      {"service.warm_resident_mb", "MB"},
      {"service.stream_query_ms_p50", "ms"},
      {"ingest.append_us_p50", "us"},
      {"ingest.events_per_s", "1/s"},
      {"ingest.live_rebuilds", "count"},
      {"ingest.resident_mb", "MB"},
      {"ingest.lag_ms_p50", "ms"},
      {"ingest.lag_ms_p90", "ms"},
      {"store.tuples", "count"},
  };
  std::set<std::string> present;
  for (const Metric& m : result.metrics) present.insert(m.name);
  for (const auto& [name, unit] : kAll) {
    if (present.count(name) == 0) result.add(name, 0, unit);
  }
}

}  // namespace perfbench
