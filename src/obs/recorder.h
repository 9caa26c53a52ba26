// The always-on span recorder: one record per thread, holding both
//   - the live *scope stack* of the thread's open spans, which a sampler
//     thread folds into weighted collapsed stacks ("outer;inner;leaf count",
//     flamegraph-ready) for /profilez, diffprov_cli --profile-out and the
//     per-query slices in /slowz; and
//   - a *ring* of the last kRingSize completed spans and DP_LOG lines, dumped
//     on demand while the process keeps serving (/tracez, the client's
//     `flightrec` op) and automatically when a worker panics or the service
//     watchdog flags it as stuck.
//
// Design constraints, in order:
//   1. Cheap enough to leave on in production (bench_obs's `recorder` row):
//      no locks, no allocation and no clock syscall per span. Opening a span
//      pushes a borrowed name pointer onto the stack; closing pops it and
//      writes one ring slot stamped with a coarse clock (an atomic refreshed
//      by the service watchdog and, as a fallback, every 64 records per
//      thread).
//   2. Readers never block writers. The stack and every ring slot are small
//      seqlocks: the writer bumps the sequence to odd, stores the payload
//      with release order, then publishes an even sequence with release
//      order; readers load the sequence and the payload with acquire order,
//      recheck the sequence, and retry or skip whatever changed underneath
//      them. A payload read from a newer write therefore makes the recheck
//      see that write's odd sequence, on any memory model and without a
//      fence, which TSan cannot model. Both orders are plain moves on x86.
//   3. Threads come and go (the daemon runs a thread per connection), so
//      records are pooled: a thread leases one on first use and its exit
//      returns it with the stack emptied and the ring intact, so a dead
//      thread's last moments stay visible in the next dump.
//
// Stack frames borrow the span's name rather than copying it: every DP_SPAN
// site passes a string literal or an interned rule label, both immortal, so
// the sampler may copy a frame's bytes even when its seqlock recheck later
// discards the read. Ring slots copy up to kNameCap bytes.
//
// Off by default; diffprovd turns it on with the sampler. When obs is
// compiled out (DP_OBS_ENABLED=0) spans never reach it, though the class
// stays linkable so tools can still dump.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dp::obs {

namespace recorder_detail {
extern std::atomic<bool> g_enabled;
}

/// The Span-side gate: one relaxed load on a namespace-scope atomic -- no
/// magic-static guard check, safe before main() and from any thread.
inline bool recorder_enabled() {
  return recorder_detail::g_enabled.load(std::memory_order_relaxed);
}

class Recorder {
 public:
  /// Ring events kept per thread; must be a power of two.
  static constexpr std::size_t kRingSize = 256;
  /// Name bytes kept per ring event and per sampled frame (longer names are
  /// truncated).
  static constexpr std::size_t kNameCap = 40;
  /// Stack frames deeper than this are counted but not named.
  static constexpr std::size_t kMaxDepth = 24;

  /// One ring event, as returned by snapshot() (plain data; the in-ring
  /// representation is atomic words).
  struct Event {
    enum class Kind : std::uint8_t { kSpan = 0, kLog = 1 };
    std::uint64_t time_us = 0;   // coarse completion time
    std::uint64_t trace_id = 0;  // propagated context, 0 = none
    std::uint32_t tid = 0;       // trace_thread_id() of the record's owner
    Kind kind = Kind::kSpan;
    std::uint8_t level = 0;         // dp::LogLevel for kLog events
    std::uint32_t duration_us = 0;  // span duration when known (tracer on)
    char name[kNameCap + 1] = {};   // NUL-terminated, truncated
  };

  /// Process-wide instance (leaked: thread-exit returns may run during
  /// static destruction).
  static Recorder& instance();

  /// The one switch: while on, every Span pushes onto its thread's stack
  /// and writes the ring when it closes, and DP_LOG lines reach the ring
  /// (once install_log_hook() ran).
  void set_enabled(bool on) {
    recorder_detail::g_enabled.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const { return recorder_enabled(); }

  /// Writes one span / log line into the calling thread's ring (dropped
  /// while the recorder is off). Spans call the out-of-line close path
  /// instead; these are for direct use.
  void record_span(std::string_view name, std::uint64_t trace_id,
                   std::uint64_t duration_us);
  void record_log(std::uint8_t level, std::string_view message);

  /// Routes emitted DP_LOG lines into the ring (idempotent).
  static void install_log_hook();

  /// Consistent-enough copy of every ring, merged and sorted by (time, tid).
  /// Safe under concurrent writers; slots being written are skipped.
  [[nodiscard]] std::vector<Event> snapshot() const;

  /// Single-line JSON: {"enabled":...,"ring_size":...,"events":[...]}
  /// (single-line so the NDJSON protocol can embed it verbatim).
  [[nodiscard]] std::string to_json() const;

  /// Writes "[dp:FLIGHTREC] <reason>: <to_json()>" to stderr in one stdio
  /// call -- the automatic dump on worker panic / watchdog timeout.
  void dump_to_stderr(std::string_view reason) const;

  /// Starts the background sampler at `interval` (implies
  /// set_enabled(true)); restarts with the new interval if already running.
  void start_sampler(std::chrono::milliseconds interval);
  void stop_sampler();

  /// One sweep over every thread's stack; returns how many non-empty stacks
  /// were folded in. The sampler calls this on its timer; tests call it
  /// directly for determinism.
  std::size_t sample_once();

  /// While the profile holds no sample yet, folds in one synchronous sample
  /// of the *calling* thread's stack (the same read self_slice() takes). A
  /// diagnosis calls this while its spans are open, so a profile covering
  /// one is never empty, even when the diagnosis ended between two sampler
  /// ticks; once the sampler has folded anything in, the weights stay the
  /// sampler's alone.
  void sample_self_if_empty();

  /// Stack samples folded in since the last clear().
  [[nodiscard]] std::uint64_t samples() const;

  /// The accumulated profile as collapsed-stack text: one
  /// "frame;frame;frame <count>" line per distinct stack, heaviest first.
  [[nodiscard]] std::string collapsed() const;

  /// Collapsed-stack slice for the *calling* thread: sampler hits on this
  /// thread with sample time >= since_us, plus one synchronous self-sample
  /// of the current stack. Non-empty whenever the recorder is on and the
  /// caller holds at least one live span.
  std::string self_slice(std::uint64_t since_us);

  /// Drops ring events and the accumulated profile (not the live stacks).
  void clear();

  /// Refreshes the coarse clock ring events are stamped with (the service
  /// watchdog calls this every tick).
  static void refresh_clock();

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

 private:
  Recorder() = default;
  void sampler_main();
};

namespace recorder_detail {

struct Frame {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint32_t> len{0};
};

struct Slot {
  // Odd while a writer is mid-update, even when stable; 0 = never written.
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint64_t> time_us{0};
  std::atomic<std::uint64_t> trace_id{0};
  // Packed: low 32 = duration_us, byte 4 = kind, byte 5 = level,
  // byte 6 = name length.
  std::atomic<std::uint64_t> meta{0};
  std::atomic<std::uint64_t> name[Recorder::kNameCap / 8];
};

/// One thread's record. The owning thread is the only writer; the sampler
/// and snapshot() read under the seqlocks. The fields every span touches
/// share the first cache line.
struct ThreadRecord {
  std::atomic<std::uint32_t> stack_seq{0};
  std::atomic<std::uint32_t> depth{0};
  std::atomic<std::uint64_t> head{0};  // ring records ever written
  std::uint32_t countdown = 0;  // owner-only: records until clock refresh
  std::atomic<std::uint32_t> tid{0};  // current (or last) owner
  Frame frames[Recorder::kMaxDepth];
  Slot slots[Recorder::kRingSize];
  ThreadRecord* next_free = nullptr;  // guarded by the pool mutex
};

/// The calling thread's leased record, or nullptr before its first span. A
/// constant-initialized pointer on purpose: a thread_local with a
/// destructor is reached through an init-guarded wrapper on every access.
/// The destructor that returns the lease lives on a separate guard object.
extern constinit thread_local ThreadRecord* t_record;

/// Slow path, once per thread: leases a pooled record and arms the guard
/// that returns it at thread exit.
ThreadRecord* lease();

/// Span open: pushes `name` (borrowed) onto the thread's stack and returns
/// the record, which the span hands back to close_span -- balanced even if
/// the switch flips mid-span.
inline ThreadRecord* open_span(std::string_view name) {
  ThreadRecord* r = t_record;
  if (r == nullptr) r = lease();
  const std::uint32_t d = r->depth.load(std::memory_order_relaxed);
  if (d < Recorder::kMaxDepth) {
    const std::uint32_t seq = r->stack_seq.load(std::memory_order_relaxed);
    r->stack_seq.store(seq + 1, std::memory_order_relaxed);
    r->frames[d].name.store(name.data(), std::memory_order_release);
    r->frames[d].len.store(static_cast<std::uint32_t>(name.size()),
                           std::memory_order_release);
    r->depth.store(d + 1, std::memory_order_release);
    r->stack_seq.store(seq + 2, std::memory_order_release);
  } else {
    r->depth.store(d + 1, std::memory_order_relaxed);  // counted, not named
  }
  return r;
}

/// One seqlocked slot write into the calling thread's ring (leasing a record
/// on first use). Callers gate on the switch first.
void write(Recorder::Event::Kind kind, std::uint8_t level,
           std::string_view name, std::uint64_t trace_id,
           std::uint64_t duration_us);

/// Span close: pops the frame and writes the span into the ring.
inline void close_span(ThreadRecord* record, std::string_view name,
                       std::uint64_t trace_id, std::uint64_t duration_us) {
  // A pop mutates nothing a concurrent reader could be copying: the frames
  // below the new depth are untouched, and the popped slot only becomes
  // unreliable when a later push overwrites it (which bumps the seqlock).
  const std::uint32_t d = record->depth.load(std::memory_order_relaxed);
  if (d != 0) record->depth.store(d - 1, std::memory_order_release);
  write(Recorder::Event::Kind::kSpan, /*level=*/0, name, trace_id,
        duration_us);
}

}  // namespace recorder_detail

}  // namespace dp::obs
