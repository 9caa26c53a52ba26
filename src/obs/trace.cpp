#include "obs/trace.h"

#include <chrono>
#include <sstream>

namespace dp::obs {

namespace {

thread_local TraceContext t_current_context;

}  // namespace

std::uint64_t monotonic_micros() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            origin)
          .count());
}

std::uint32_t trace_thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local std::uint32_t id = next.fetch_add(1);
  return id;
}

TraceContext current_trace_context() { return t_current_context; }

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ScopedTraceContext::ScopedTraceContext(TraceContext context)
    : previous_(t_current_context) {
  t_current_context = context;
}

ScopedTraceContext::~ScopedTraceContext() { t_current_context = previous_; }

void Span::install(TraceContext context) { t_current_context = context; }

bool parse_trace_id(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<std::uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  if (value == 0) return false;
  out = value;
  return true;
}

std::string format_trace_id(std::uint64_t id) {
  char buf[17];
  int i = 16;
  buf[16] = '\0';
  do {
    buf[--i] = "0123456789abcdef"[id & 0xF];
    id >>= 4;
  } while (id != 0);
  return std::string(buf + i);
}

void Tracer::record_complete(std::string_view name, const char* category,
                             std::uint64_t start_us, std::uint64_t duration_us,
                             std::uint64_t trace_id, std::uint64_t span_id,
                             std::uint64_t parent_span_id) {
  TraceEvent event;
  event.name = std::string(name);
  event.category = category;
  event.start_us = start_us;
  event.duration_us = duration_us;
  event.tid = trace_thread_id();
  event.trace_id = trace_id;
  event.span_id = span_id;
  event.parent_span_id = parent_span_id;
  std::lock_guard lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

std::string Tracer::to_chrome_json() const {
  std::lock_guard lock(mutex_);
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const TraceEvent& e = events_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"name\": \"";
    for (char c : e.name) {  // names are metric-style; escape defensively
      if (c == '"' || c == '\\') out << '\\';
      out << (static_cast<unsigned char>(c) < 0x20 ? '_' : c);
    }
    out << "\", \"cat\": \"" << e.category << "\", \"ph\": \"X\", \"ts\": "
        << e.start_us << ", \"dur\": " << e.duration_us
        << ", \"pid\": 1, \"tid\": " << e.tid;
    if (e.span_id != 0) {
      out << ", \"args\": {";
      if (e.trace_id != 0) {
        out << "\"trace_id\": \"" << format_trace_id(e.trace_id) << "\", ";
      }
      out << "\"span_id\": " << e.span_id << ", \"parent_span_id\": "
          << e.parent_span_id << "}";
    }
    out << "}";
  }
  out << (events_.empty() ? "" : "\n") << "]}\n";
  return out.str();
}

Tracer& default_tracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace dp::obs
