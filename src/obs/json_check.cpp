#include "obs/json_check.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace dp::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<Json> parse(std::string& error) {
    Json value;
    if (!parse_value(value)) {
      error = "offset " + std::to_string(pos_) + ": " + error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      error = "offset " + std::to_string(pos_) + ": trailing content";
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const char* message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("bad \\u escape");
      }
    }
    pos_ += 4;
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("truncated escape");
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            std::uint32_t cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be followed by \uDC00..\uDFFF.
              if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return fail("unpaired surrogate");
              }
              pos_ += 2;
              std::uint32_t low = 0;
              if (!parse_hex4(low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return fail("unpaired surrogate");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("unpaired surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return fail("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_number(double& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() ||
        !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      return fail("expected digit");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("expected fraction digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        return fail("expected exponent digit");
      }
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    out = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                      nullptr);
    return true;
  }

  bool parse_value(Json& out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out.kind = Json::Kind::kObject;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != ':') {
          return fail("expected ':'");
        }
        ++pos_;
        Json value;
        if (!parse_value(value)) return false;
        out.object.emplace(std::move(key), std::move(value));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated object");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos_;
      out.kind = Json::Kind::kArray;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        Json value;
        if (!parse_value(value)) return false;
        out.array.push_back(std::move(value));
        skip_ws();
        if (pos_ >= text_.size()) return fail("unterminated array");
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out.kind = Json::Kind::kString;
      return parse_string(out.string);
    }
    if (c == 't') {
      out.kind = Json::Kind::kBool;
      out.boolean = true;
      return literal("true");
    }
    if (c == 'f') {
      out.kind = Json::Kind::kBool;
      out.boolean = false;
      return literal("false");
    }
    if (c == 'n') {
      out.kind = Json::Kind::kNull;
      return literal("null");
    }
    out.kind = Json::Kind::kNumber;
    return parse_number(out.number);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string& error) {
  return Parser(text).parse(error);
}

std::string Json::get_string(const std::string& key,
                             std::string fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? v->string
                                                  : std::move(fallback);
}

double Json::get_number(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind == Kind::kBool ? v->boolean : fallback;
}

std::string json_quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out += '"';
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::optional<std::string> json_error(std::string_view text) {
  std::string error;
  if (!Json::parse(text, error)) return error;
  return std::nullopt;
}

TraceCheck check_chrome_trace(std::string_view text) {
  TraceCheck check;
  std::string error;
  const auto root = Json::parse(text, error);
  if (!root) {
    check.error = error;
    return check;
  }
  if (root->kind != Json::Kind::kObject) {
    check.error = "top level is not an object";
    return check;
  }
  const Json* events = root->find("traceEvents");
  if (events == nullptr || events->kind != Json::Kind::kArray) {
    check.error = "missing \"traceEvents\" array";
    return check;
  }
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const Json& e = events->array[i];
    const Json* name = e.find("name");
    const Json* ph = e.find("ph");
    const Json* ts = e.find("ts");
    if (e.kind != Json::Kind::kObject || name == nullptr ||
        name->kind != Json::Kind::kString || ph == nullptr ||
        ph->kind != Json::Kind::kString || ts == nullptr ||
        ts->kind != Json::Kind::kNumber) {
      check.error = "event " + std::to_string(i) +
                    " lacks string name/ph or numeric ts";
      return check;
    }
    check.names.insert(name->string);
  }
  check.events = events->array.size();
  check.ok = true;
  return check;
}

MetricsCheck check_metrics_json(std::string_view text) {
  MetricsCheck check;
  std::string error;
  const auto root = Json::parse(text, error);
  if (!root) {
    check.error = error;
    return check;
  }
  if (root->kind != Json::Kind::kObject) {
    check.error = "top level is not an object";
    return check;
  }
  for (const char* section : {"counters", "gauges", "histograms"}) {
    const Json* group = root->find(section);
    if (group == nullptr || group->kind != Json::Kind::kObject) {
      check.error = std::string("missing \"") + section + "\" object";
      return check;
    }
    for (const auto& [name, value] : group->object) {
      check.names.insert(name);
      ++check.series;
      if (std::string_view(section) == "histograms") {
        const Json* buckets = value.find("buckets");
        const Json* count = value.find("count");
        const Json* sum = value.find("sum");
        if (buckets == nullptr || buckets->kind != Json::Kind::kArray ||
            count == nullptr || count->kind != Json::Kind::kNumber) {
          check.error = "histogram " + name + " lacks buckets/count";
          return check;
        }
        // Semantic checks: bounds strictly increase and end at +Inf, the
        // per-bucket counts sum to `count`, latency sums are non-negative.
        double prev_le = -1;
        bool saw_inf = false;
        double bucket_total = 0;
        for (std::size_t b = 0; b < buckets->array.size(); ++b) {
          const Json& bucket = buckets->array[b];
          const Json* le = bucket.find("le");
          const Json* bc = bucket.find("count");
          if (bc == nullptr || bc->kind != Json::Kind::kNumber ||
              bc->number < 0) {
            check.error = "histogram " + name + " bucket " +
                          std::to_string(b) + " lacks a non-negative count";
            return check;
          }
          bucket_total += bc->number;
          if (le != nullptr && le->kind == Json::Kind::kString &&
              le->string == "+Inf") {
            if (b + 1 != buckets->array.size()) {
              check.error =
                  "histogram " + name + " has +Inf before the last bucket";
              return check;
            }
            saw_inf = true;
          } else if (le != nullptr && le->kind == Json::Kind::kNumber) {
            if (!(le->number > prev_le)) {
              check.error = "histogram " + name +
                            " le bounds not strictly increasing at bucket " +
                            std::to_string(b);
              return check;
            }
            prev_le = le->number;
          } else {
            check.error = "histogram " + name + " bucket " +
                          std::to_string(b) + " has a malformed le";
            return check;
          }
        }
        if (!saw_inf) {
          check.error = "histogram " + name + " lacks a +Inf bucket";
          return check;
        }
        if (bucket_total != count->number) {
          check.error = "histogram " + name + " bucket counts sum to " +
                        std::to_string(bucket_total) + " but count is " +
                        std::to_string(count->number);
          return check;
        }
        const bool latency = name.size() >= 3 &&
                             (name.compare(name.size() - 3, 3, "_us") == 0 ||
                              name.compare(name.size() - 3, 3, ".us") == 0);
        if (latency && (sum == nullptr || sum->kind != Json::Kind::kNumber ||
                        sum->number < 0)) {
          check.error = "latency histogram " + name + " has a negative sum";
          return check;
        }
      } else if (value.kind != Json::Kind::kNumber) {
        check.error = section + (" entry " + name) + " is not a number";
        return check;
      }
    }
  }
  // "sketches" is optional (older dumps lack it) but validated when present:
  // quantiles must be monotone and bracketed by the exact min/max.
  if (const Json* sketches = root->find("sketches"); sketches != nullptr) {
    if (sketches->kind != Json::Kind::kObject) {
      check.error = "\"sketches\" is not an object";
      return check;
    }
    for (const auto& [name, value] : sketches->object) {
      check.names.insert(name);
      ++check.series;
      double fields[7];
      const char* keys[7] = {"count", "min", "max", "p50",
                             "p95",   "p99", "p999"};
      for (int k = 0; k < 7; ++k) {
        const Json* field = value.find(keys[k]);
        if (field == nullptr || field->kind != Json::Kind::kNumber) {
          check.error =
              "sketch " + name + " lacks numeric " + std::string(keys[k]);
          return check;
        }
        fields[k] = field->number;
      }
      const double count = fields[0], min = fields[1], max = fields[2];
      const double p50 = fields[3], p95 = fields[4], p99 = fields[5];
      const double p999 = fields[6];
      if (count < 0) {
        check.error = "sketch " + name + " has a negative count";
        return check;
      }
      if (!(p50 <= p95 && p95 <= p99 && p99 <= p999)) {
        check.error = "sketch " + name + " quantiles are not monotone";
        return check;
      }
      if (count > 0 && !(min <= p50 && p999 <= max)) {
        check.error =
            "sketch " + name + " quantiles escape the [min, max] range";
        return check;
      }
    }
  }
  check.ok = true;
  return check;
}

namespace {

/// One parsed Prometheus sample line: name, optional le label, value.
struct PromSample {
  std::string name;
  std::string le;  // empty if no {le="..."} label
  double value = 0;
};

bool parse_prom_sample(std::string_view line, PromSample& out,
                       std::string& error) {
  std::size_t i = 0;
  while (i < line.size() && line[i] != ' ' && line[i] != '{') ++i;
  if (i == 0) {
    error = "sample line lacks a metric name";
    return false;
  }
  out.name = std::string(line.substr(0, i));
  if (i < line.size() && line[i] == '{') {
    const std::size_t close = line.find('}', i);
    if (close == std::string_view::npos) {
      error = "unterminated label set";
      return false;
    }
    const std::string_view labels = line.substr(i + 1, close - i - 1);
    // The registry only emits the `le` label; accept exactly that form.
    constexpr std::string_view kLe = "le=\"";
    if (labels.substr(0, kLe.size()) != kLe || labels.empty() ||
        labels.back() != '"') {
      error = "unsupported label set {" + std::string(labels) + "}";
      return false;
    }
    out.le = std::string(labels.substr(kLe.size(),
                                       labels.size() - kLe.size() - 1));
    i = close + 1;
  }
  if (i >= line.size() || line[i] != ' ') {
    error = "sample lacks a value";
    return false;
  }
  ++i;
  const std::string value_text(line.substr(i));
  char* end = nullptr;
  out.value = std::strtod(value_text.c_str(), &end);
  if (end == value_text.c_str() || *end != '\0') {
    error = "malformed sample value \"" + value_text + "\"";
    return false;
  }
  return true;
}

/// Accumulated histogram state while scanning a scrape.
struct PromHistogram {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  bool saw_inf = false;
  double inf_count = 0;
  bool saw_sum = false;
  double sum = 0;
  bool saw_count = false;
  double count = 0;
};

}  // namespace

PrometheusCheck check_prometheus_text(std::string_view text) {
  PrometheusCheck check;
  std::map<std::string, std::string> types;        // name -> TYPE
  std::map<std::string, PromHistogram> histograms; // base name -> state
  std::map<std::string, double> scalars;           // gauge/counter values

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) continue;
    const auto fail = [&](const std::string& message) {
      check.error = "line " + std::to_string(line_no) + ": " + message;
      return check;
    };
    if (line[0] == '#') {
      constexpr std::string_view kType = "# TYPE ";
      if (line.substr(0, kType.size()) != kType) continue;  // comment/HELP
      const std::string_view rest = line.substr(kType.size());
      const std::size_t space = rest.find(' ');
      if (space == std::string_view::npos) {
        return fail("malformed TYPE line");
      }
      const std::string name(rest.substr(0, space));
      const std::string type(rest.substr(space + 1));
      if (type != "counter" && type != "gauge" && type != "histogram") {
        return fail("unknown type \"" + type + "\"");
      }
      if (!types.emplace(name, type).second) {
        return fail("duplicate TYPE for " + name);
      }
      continue;
    }
    PromSample sample;
    std::string error;
    if (!parse_prom_sample(line, sample, error)) return fail(error);

    // Resolve the sample to its declared family (histograms expose
    // name_bucket/name_sum/name_count under one TYPE line).
    std::string base = sample.name;
    std::string suffix;
    for (const char* s : {"_bucket", "_sum", "_count"}) {
      const std::string_view sv(s);
      if (base.size() > sv.size() &&
          std::string_view(base).substr(base.size() - sv.size()) == sv &&
          types.count(base.substr(0, base.size() - sv.size())) != 0 &&
          types[base.substr(0, base.size() - sv.size())] == "histogram") {
        suffix = s;
        base = base.substr(0, base.size() - sv.size());
        break;
      }
    }
    const auto type_it = types.find(base);
    if (type_it == types.end()) {
      return fail("sample " + sample.name + " has no preceding TYPE");
    }
    if (type_it->second == "histogram") {
      PromHistogram& h = histograms[base];
      if (suffix == "_bucket") {
        if (sample.le.empty()) return fail(sample.name + " lacks an le label");
        if (sample.value < 0) {
          return fail(sample.name + " bucket count is negative");
        }
        if (sample.le == "+Inf") {
          if (h.saw_inf) return fail(base + " has two +Inf buckets");
          h.saw_inf = true;
          h.inf_count = sample.value;
        } else {
          if (h.saw_inf) return fail(base + " has a bucket after +Inf");
          char* end = nullptr;
          const double le = std::strtod(sample.le.c_str(), &end);
          if (end == sample.le.c_str() || *end != '\0') {
            return fail(base + " has a non-numeric le \"" + sample.le + "\"");
          }
          if (!h.buckets.empty()) {
            if (!(le > h.buckets.back().first)) {
              return fail(base + " le bounds not strictly increasing");
            }
            if (sample.value < h.buckets.back().second) {
              return fail(base + " cumulative bucket counts decrease");
            }
          }
          h.buckets.emplace_back(le, sample.value);
        }
      } else if (suffix == "_sum") {
        h.saw_sum = true;
        h.sum = sample.value;
      } else if (suffix == "_count") {
        h.saw_count = true;
        h.count = sample.value;
      } else {
        return fail("bare sample " + sample.name +
                    " for histogram-typed family");
      }
      continue;
    }
    if (type_it->second == "counter" && sample.value < 0) {
      return fail("counter " + sample.name + " is negative");
    }
    scalars[sample.name] = sample.value;
    check.names.insert(sample.name);
    ++check.series;
  }

  for (const auto& [name, h] : histograms) {
    const auto fail = [&](const std::string& message) {
      check.error = "histogram " + name + ": " + message;
      return check;
    };
    if (!h.saw_inf) return fail("missing +Inf bucket");
    if (!h.saw_count || !h.saw_sum) return fail("missing _sum or _count");
    if (!h.buckets.empty() && h.inf_count < h.buckets.back().second) {
      return fail("+Inf bucket below the last finite bucket");
    }
    if (h.inf_count != h.count) return fail("+Inf bucket != _count");
    for (const auto& [le, cumulative] : h.buckets) {
      if (cumulative > h.count) {
        return fail("cumulative bucket count exceeds _count");
      }
    }
    const bool latency =
        name.size() >= 3 && name.compare(name.size() - 3, 3, "_us") == 0;
    if (latency && h.sum < 0) return fail("latency histogram has negative sum");
    check.names.insert(name);
    ++check.series;
  }

  // Quantile-sketch families: every *_p999 gauge anchors a family that must
  // carry monotone p50 <= p95 <= p99 <= p999, all bounded by the exact _max,
  // and (when the histogram family of the same name exists) a _sketch_count
  // equal to its _count -- the exporter renders both from one snapshot.
  constexpr std::string_view kP999 = "_p999";
  for (const auto& [name, value] : scalars) {
    if (name.size() <= kP999.size() ||
        std::string_view(name).substr(name.size() - kP999.size()) != kP999) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - kP999.size());
    const auto fail = [&](const std::string& message) {
      check.error = "sketch " + base + ": " + message;
      return check;
    };
    double q[3];
    const char* suffixes[3] = {"_p50", "_p95", "_p99"};
    for (int i = 0; i < 3; ++i) {
      const auto it = scalars.find(base + suffixes[i]);
      if (it == scalars.end()) {
        return fail(std::string("missing ") + suffixes[i] +
                    " alongside _p999");
      }
      q[i] = it->second;
    }
    if (!(q[0] <= q[1] && q[1] <= q[2] && q[2] <= value)) {
      return fail("quantiles are not monotone");
    }
    const auto max_it = scalars.find(base + "_max");
    if (max_it == scalars.end()) return fail("missing _max alongside _p999");
    if (value > max_it->second) {
      return fail("_p999 exceeds the observed _max");
    }
    const auto sketch_count_it = scalars.find(base + "_sketch_count");
    if (sketch_count_it == scalars.end()) {
      return fail("missing _sketch_count alongside _p999");
    }
    const auto hist_it = histograms.find(base);
    if (hist_it != histograms.end() &&
        sketch_count_it->second != hist_it->second.count) {
      return fail("_sketch_count diverges from the histogram _count");
    }
  }
  check.ok = true;
  return check;
}

}  // namespace dp::obs
