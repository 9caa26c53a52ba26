// Hierarchical tracing on a monotonic clock, exported as Chrome trace-event
// JSON (loadable in chrome://tracing and ui.perfetto.dev).
//
// Spans are RAII: construction captures a start timestamp, destruction
// appends one "complete" ('ph':'X') event. Events on the same thread nest by
// time containment, which the viewers render as a flame chart; in addition
// every recorded span carries explicit ids -- a process-unique span id, the
// id of its parent span, and a trace id -- so one *logical* operation that
// hops threads (client -> daemon connection thread -> worker) still reads as
// one connected trace.
//
// Trace-context propagation: each thread holds a current TraceContext
// (trace id + innermost live span id). A recording Span adopts the current
// context as its parent and installs itself for its scope (stack
// discipline), so same-thread parentage is automatic. Crossing a thread
// boundary is explicit: the sending side snapshots a TraceContext and the
// receiving side installs it with ScopedTraceContext -- the diffprovd worker
// does exactly this with the context minted by diffprov_client and carried
// in the NDJSON `trace` field.
//
// Cost model: when the tracer is disabled a span costs two relaxed atomic
// loads and branches (tracer + recorder gates); nothing is allocated or
// timestamped. When compiled out (DP_OBS_ENABLED=0, see obs.h) the macros
// vanish entirely. Spans whose tracer is off but whose recorder is on take
// the cheap path described in recorder.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.h"

namespace dp::obs {

/// Microseconds on the process-local monotonic clock (steady_clock, zeroed
/// at first use). Never wall-clock: trace timestamps must be monotonic.
std::uint64_t monotonic_micros();

/// Small dense id of the calling thread (1, 2, ... in first-use order);
/// becomes the Chrome trace 'tid'.
std::uint32_t trace_thread_id();

/// The ambient identity a span inherits: which trace this thread is working
/// for and which span is its would-be parent. trace_id == 0 means "no
/// propagated context" (spans still chain locally for flame-graph nesting).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// This thread's current context (what a new span would inherit).
TraceContext current_trace_context();

/// Process-unique, nonzero span id (relaxed atomic counter).
std::uint64_t next_span_id();

/// Installs `context` as the calling thread's current trace context for the
/// scope, restoring the previous one on destruction. Use at thread-hop
/// boundaries (worker picks up a job, connection thread serves a request);
/// within a thread, Span handles propagation itself.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

/// Parses 1-16 hex digits into a nonzero u64. Returns false (and leaves
/// `out` untouched) on empty, oversized, non-hex, or zero input -- the
/// validation the wire protocol applies to client-minted ids.
bool parse_trace_id(std::string_view text, std::uint64_t& out);

/// Lower-case hex, no leading zeros (inverse of parse_trace_id).
std::string format_trace_id(std::uint64_t id);

struct TraceEvent {
  std::string name;
  const char* category = "dp";  // must point at a string literal
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
  std::uint32_t tid = 0;
  /// 0 = span recorded with no propagated trace context.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Appends one complete event (thread-safe). Called by ~Span; direct use
  /// is fine for events timed by other means.
  void record_complete(std::string_view name, const char* category,
                       std::uint64_t start_us, std::uint64_t duration_us,
                       std::uint64_t trace_id = 0, std::uint64_t span_id = 0,
                       std::uint64_t parent_span_id = 0);

  void clear();
  [[nodiscard]] std::size_t size() const;
  /// Snapshot of the recorded events (copy; for tests and tools).
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} -- the Chrome
  /// trace-event JSON array-of-complete-events format. Spans with ids carry
  /// them in "args" (trace_id as hex; viewers show args on click, tools can
  /// re-link cross-thread parentage from them).
  [[nodiscard]] std::string to_chrome_json() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// The process-wide tracer all DP_SPAN macros record into. Enabled by the
/// CLI's --trace-out (or tests); disabled by default.
Tracer& default_tracer();

/// RAII span. With the tracer on it records a trace event; with the
/// recorder on it pushes onto the thread's scope stack and writes the ring
/// when it closes (no clock reads: the ring duration is 0 unless the tracer
/// also timed the span). Otherwise it is inert. `name` is borrowed, never
/// copied until the span closes, so it must outlive the span -- every
/// DP_SPAN site passes a string literal or an interned rule label. end()
/// closes the span early; the destructor closes it otherwise.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name, const char* category = "dp")
      : name_(name) {
    if (tracer.enabled()) {
      tracer_ = &tracer;
      category_ = category;
      start_us_ = monotonic_micros();
      parent_ = current_trace_context();
      span_id_ = next_span_id();
      install({parent_.trace_id, span_id_});
    }
    if (recorder_enabled()) record_ = recorder_detail::open_span(name);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  /// True if the span will record a trace event (the tracer was enabled at
  /// construction and end() has not run yet).
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

  /// Records the span now (idempotent).
  void end() {
    std::uint64_t duration = 0;
    if (tracer_ != nullptr) {
      Tracer* t = tracer_;
      tracer_ = nullptr;
      install(parent_);
      duration = monotonic_micros() - start_us_;
      t->record_complete(name_, category_, start_us_, duration,
                         parent_.trace_id, span_id_, parent_.span_id);
    }
    if (record_ != nullptr) {
      recorder_detail::close_span(record_, name_,
                                  current_trace_context().trace_id, duration);
      record_ = nullptr;
    }
  }

 private:
  static void install(TraceContext context);

  Tracer* tracer_ = nullptr;  // null = not tracing
  recorder_detail::ThreadRecord* record_ = nullptr;  // null = not recording
  std::string_view name_;
  const char* category_ = "dp";
  std::uint64_t start_us_ = 0;
  TraceContext parent_{};
  std::uint64_t span_id_ = 0;
};

}  // namespace dp::obs
