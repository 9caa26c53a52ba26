#include "obs/recorder.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/json_check.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dp::obs {

namespace recorder_detail {
std::atomic<bool> g_enabled{false};
constinit thread_local ThreadRecord* t_record = nullptr;
}  // namespace recorder_detail

namespace {

using recorder_detail::Slot;
using recorder_detail::ThreadRecord;
using recorder_detail::t_record;

constexpr std::size_t kNameWords = Recorder::kNameCap / 8;
static_assert(Recorder::kNameCap % 8 == 0, "name cap must be word-aligned");
static_assert((Recorder::kRingSize & (Recorder::kRingSize - 1)) == 0,
              "ring size must be a power of two");

/// Bound on the recent-sample ring the slow-query slices draw from. At a
/// 10ms sampling interval this covers the last ~40s of one busy thread, or
/// proportionally less across many -- plenty for per-query attribution.
constexpr std::size_t kRecentCap = 4096;

struct RecentSample {
  std::uint64_t time_us = 0;
  std::uint32_t tid = 0;
  std::string stack;
};

/// Everything process-wide, leaked on purpose: connection threads may still
/// return their leases during static destruction.
struct State {
  // The record pool: every record ever leased (never freed) and the free
  // list of those whose thread exited.
  std::mutex pool_mutex;
  std::vector<ThreadRecord*> records;
  ThreadRecord* free_list = nullptr;

  // The accumulated profile.
  mutable std::mutex profile_mutex;
  std::map<std::string, std::uint64_t> weights;
  std::deque<RecentSample> recent;
  std::uint64_t samples = 0;

  // The sampler thread.
  std::mutex sampler_mutex;
  std::condition_variable sampler_cv;
  std::thread sampler;
  bool sampler_running = false;
  bool sampler_stop = false;
  std::chrono::milliseconds interval{10};
};

State& state() {
  static State* s = new State();
  return *s;
}

std::atomic<std::uint64_t> g_clock{0};

std::uint64_t coarse_now_us() {
  std::uint64_t now = g_clock.load(std::memory_order_relaxed);
  if (now == 0) {
    Recorder::refresh_clock();
    now = g_clock.load(std::memory_order_relaxed);
  }
  return now;
}

void return_record(ThreadRecord* r) {
  // Empty the stack under its seqlock so the sampler never attributes a
  // dead thread's frames to the next leaseholder; the ring stays intact.
  const std::uint32_t seq = r->stack_seq.load(std::memory_order_relaxed);
  r->stack_seq.store(seq + 1, std::memory_order_relaxed);
  r->depth.store(0, std::memory_order_release);
  r->stack_seq.store(seq + 2, std::memory_order_release);
  State& st = state();
  std::lock_guard lock(st.pool_mutex);
  r->next_free = st.free_list;
  st.free_list = r;
}

/// Returns the thread's record at thread exit. Lives apart from t_record so
/// the hot-path access stays wrapper-free; lease() arms it.
struct LeaseGuard {
  bool armed = false;
  ~LeaseGuard() {
    if (t_record != nullptr) {
      return_record(t_record);
      t_record = nullptr;
    }
  }
};

thread_local LeaseGuard t_guard;

std::uint64_t pack_meta(Recorder::Event::Kind kind, std::uint8_t level,
                        std::uint32_t duration_us, std::size_t name_len) {
  return static_cast<std::uint64_t>(duration_us) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) << 32) |
         (static_cast<std::uint64_t>(level) << 40) |
         (static_cast<std::uint64_t>(name_len) << 48);
}

/// Seqlock-consistent read of one stack into root-first "a;b;c" form.
/// False for empty stacks or after repeated writer contention (the sample is
/// simply dropped; the next tick tries again).
bool read_stack(const ThreadRecord& r, std::string& out, std::uint32_t& tid) {
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint32_t seq_before =
        r.stack_seq.load(std::memory_order_acquire);
    if ((seq_before & 1u) != 0) continue;
    std::uint32_t depth = r.depth.load(std::memory_order_acquire);
    if (depth > Recorder::kMaxDepth) depth = Recorder::kMaxDepth;
    char names[Recorder::kMaxDepth][Recorder::kNameCap];
    std::uint32_t lens[Recorder::kMaxDepth];
    for (std::uint32_t d = 0; d < depth; ++d) {
      const char* ptr = r.frames[d].name.load(std::memory_order_acquire);
      const std::uint32_t len = r.frames[d].len.load(std::memory_order_acquire);
      lens[d] = std::min<std::uint32_t>(len, Recorder::kNameCap);
      // Dereferencing before the seq recheck is safe: frame names point at
      // immortal bytes (literals and interned labels), never freed storage.
      if (ptr != nullptr && lens[d] != 0) {
        std::memcpy(names[d], ptr, lens[d]);
      } else {
        lens[d] = 0;
      }
    }
    const std::uint32_t tid_read = r.tid.load(std::memory_order_acquire);
    if (r.stack_seq.load(std::memory_order_relaxed) != seq_before) continue;
    if (depth == 0) return false;
    out.clear();
    for (std::uint32_t d = 0; d < depth; ++d) {
      if (d != 0) out.push_back(';');
      out.append(names[d], lens[d]);
    }
    tid = tid_read;
    return true;
  }
  return false;
}

/// The calling thread's own stack, read the same way the sampler reads it.
bool read_self(std::string& out, std::uint32_t& tid) {
  return t_record != nullptr && read_stack(*t_record, out, tid);
}

/// Folds one stack sample into the accumulated profile and the recent ring;
/// with `only_if_empty`, only while the profile holds no sample yet.
void fold(const std::string& key, std::uint32_t tid, std::uint64_t now,
          bool only_if_empty = false) {
  State& st = state();
  std::lock_guard lock(st.profile_mutex);
  if (only_if_empty && st.samples != 0) return;
  ++st.weights[key];
  ++st.samples;
  st.recent.push_back({now, tid, key});
  if (st.recent.size() > kRecentCap) st.recent.pop_front();
}

std::string render_collapsed(
    const std::map<std::string, std::uint64_t>& weights) {
  std::vector<std::pair<std::string, std::uint64_t>> rows(weights.begin(),
                                                          weights.end());
  std::stable_sort(rows.begin(), rows.end(),
                   [](const std::pair<std::string, std::uint64_t>& a,
                      const std::pair<std::string, std::uint64_t>& b) {
                     return a.second > b.second;
                   });
  std::string out;
  for (const auto& [stack, weight] : rows) {
    out += stack;
    out += ' ';
    out += std::to_string(weight);
    out += '\n';
  }
  return out;
}

std::vector<ThreadRecord*> all_records() {
  State& st = state();
  std::lock_guard lock(st.pool_mutex);
  return st.records;
}

void log_sink_trampoline(LogLevel level, const char* message,
                         std::size_t length) {
  Recorder::instance().record_log(static_cast<std::uint8_t>(level),
                                  std::string_view(message, length));
}

}  // namespace

ThreadRecord* recorder_detail::lease() {
  t_guard.armed = true;  // odr-use: registers the thread-exit return
  State& st = state();
  ThreadRecord* r;
  {
    std::lock_guard lock(st.pool_mutex);
    r = st.free_list;
    if (r != nullptr) {
      st.free_list = r->next_free;
      r->next_free = nullptr;
    } else {
      r = new ThreadRecord();
      st.records.push_back(r);
    }
  }
  r->tid.store(trace_thread_id(), std::memory_order_relaxed);
  t_record = r;
  return r;
}

void recorder_detail::write(Recorder::Event::Kind kind, std::uint8_t level,
                            std::string_view name, std::uint64_t trace_id,
                            std::uint64_t duration_us) {
  ThreadRecord& r = t_record != nullptr ? *t_record : *lease();
  if (r.countdown == 0) {
    // Amortized clock refresh: between refreshes (ours, other threads', the
    // service watchdog's) events share a timestamp, which is fine for a
    // "last moments before the hang" recorder.
    Recorder::refresh_clock();
    r.countdown = 64;
  }
  --r.countdown;

  const std::uint64_t head = r.head.load(std::memory_order_relaxed);
  Slot& slot = r.slots[head & (Recorder::kRingSize - 1)];
  const std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
  slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: in progress
  slot.time_us.store(coarse_now_us(), std::memory_order_release);
  slot.trace_id.store(trace_id, std::memory_order_release);
  const std::size_t name_len = std::min(name.size(), Recorder::kNameCap);
  const std::uint32_t dur = duration_us > 0xFFFFFFFFu
                                ? 0xFFFFFFFFu
                                : static_cast<std::uint32_t>(duration_us);
  slot.meta.store(pack_meta(kind, level, dur, name_len),
                  std::memory_order_release);
  for (std::size_t w = 0; w * 8 < name_len; ++w) {
    std::uint64_t word = 0;
    const std::size_t n = std::min<std::size_t>(8, name_len - w * 8);
    std::memcpy(&word, name.data() + w * 8, n);
    slot.name[w].store(word, std::memory_order_release);
  }
  slot.seq.store(seq + 2, std::memory_order_release);  // even: published
  r.head.store(head + 1, std::memory_order_relaxed);
}

Recorder& Recorder::instance() {
  static Recorder* recorder = new Recorder();
  return *recorder;
}

void Recorder::refresh_clock() {
  g_clock.store(monotonic_micros(), std::memory_order_relaxed);
}

void Recorder::record_span(std::string_view name, std::uint64_t trace_id,
                           std::uint64_t duration_us) {
  if (!enabled()) return;
  recorder_detail::write(Event::Kind::kSpan, /*level=*/0, name, trace_id,
                         duration_us);
}

void Recorder::record_log(std::uint8_t level, std::string_view message) {
  if (!enabled()) return;
  recorder_detail::write(Event::Kind::kLog, level, message, /*trace_id=*/0,
                         /*duration_us=*/0);
}

void Recorder::install_log_hook() { set_log_sink(&log_sink_trampoline); }

std::vector<Recorder::Event> Recorder::snapshot() const {
  const std::vector<ThreadRecord*> records = all_records();
  std::vector<Event> out;
  out.reserve(records.size() * 8);
  for (const ThreadRecord* r : records) {
    const std::uint32_t tid = r->tid.load(std::memory_order_relaxed);
    for (const Slot& slot : r->slots) {
      const std::uint32_t seq_before = slot.seq.load(std::memory_order_acquire);
      if (seq_before == 0 || (seq_before & 1u) != 0) continue;  // empty/busy
      Event event;
      event.time_us = slot.time_us.load(std::memory_order_acquire);
      event.trace_id = slot.trace_id.load(std::memory_order_acquire);
      const std::uint64_t meta = slot.meta.load(std::memory_order_acquire);
      std::uint64_t words[kNameWords];
      for (std::size_t w = 0; w < kNameWords; ++w) {
        words[w] = slot.name[w].load(std::memory_order_acquire);
      }
      // Re-check: if a writer lapped us mid-read the fields above may mix
      // two events -- drop the slot rather than report a chimera.
      if (slot.seq.load(std::memory_order_relaxed) != seq_before) continue;
      event.duration_us = static_cast<std::uint32_t>(meta & 0xFFFFFFFFu);
      event.kind = static_cast<Event::Kind>((meta >> 32) & 0xFF);
      event.level = static_cast<std::uint8_t>((meta >> 40) & 0xFF);
      const std::size_t name_len =
          std::min<std::size_t>((meta >> 48) & 0xFF, kNameCap);
      std::memcpy(event.name, words, kNameCap);
      event.name[name_len] = '\0';
      event.tid = tid;
      out.push_back(event);
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    if (a.time_us != b.time_us) return a.time_us < b.time_us;
    return a.tid < b.tid;
  });
  return out;
}

std::string Recorder::to_json() const {
  const std::vector<Event> events = snapshot();
  std::ostringstream out;
  out << "{\"enabled\": " << (enabled() ? "true" : "false")
      << ", \"ring_size\": " << kRingSize << ", \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out << (i == 0 ? "" : ", ") << "{\"kind\": \""
        << (e.kind == Event::Kind::kLog ? "log" : "span")
        << "\", \"name\": " << json_quote(e.name) << ", \"time_us\": "
        << e.time_us << ", \"tid\": " << e.tid;
    if (e.trace_id != 0) {
      out << ", \"trace_id\": \"" << format_trace_id(e.trace_id) << "\"";
    }
    if (e.kind == Event::Kind::kSpan) {
      out << ", \"duration_us\": " << e.duration_us;
    } else {
      out << ", \"level\": " << static_cast<int>(e.level);
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

void Recorder::dump_to_stderr(std::string_view reason) const {
  std::string line = "[dp:FLIGHTREC] ";
  line += reason;
  line += ": ";
  line += to_json();
  line += '\n';
  std::fwrite(line.data(), 1, line.size(), stderr);
}

void Recorder::start_sampler(std::chrono::milliseconds interval) {
  stop_sampler();
  set_enabled(true);
  State& st = state();
  std::lock_guard lock(st.sampler_mutex);
  st.sampler_stop = false;
  st.interval = std::max(interval, std::chrono::milliseconds(1));
  st.sampler = std::thread([this] { sampler_main(); });
  st.sampler_running = true;
}

void Recorder::stop_sampler() {
  State& st = state();
  std::thread joinable;
  {
    std::lock_guard lock(st.sampler_mutex);
    if (!st.sampler_running) return;
    st.sampler_stop = true;
    st.sampler_cv.notify_all();
    joinable = std::move(st.sampler);
    st.sampler_running = false;
  }
  joinable.join();
}

void Recorder::sampler_main() {
  State& st = state();
  std::unique_lock lock(st.sampler_mutex);
  while (!st.sampler_stop) {
    st.sampler_cv.wait_for(lock, st.interval);
    if (st.sampler_stop) break;
    lock.unlock();
    sample_once();
    lock.lock();
  }
}

std::size_t Recorder::sample_once() {
  // Returned records stay in the list with depth 0; read_stack skips them.
  const std::vector<ThreadRecord*> records = all_records();
  const std::uint64_t now = monotonic_micros();
  std::size_t folded = 0;
  std::string key;
  std::uint32_t tid = 0;
  for (const ThreadRecord* r : records) {
    if (!read_stack(*r, key, tid)) continue;
    fold(key, tid, now);
    ++folded;
  }
  return folded;
}

void Recorder::sample_self_if_empty() {
  if (!recorder_enabled() || samples() != 0) return;
  std::string key;
  std::uint32_t tid = 0;
  if (read_self(key, tid)) {
    fold(key, tid, monotonic_micros(), /*only_if_empty=*/true);
  }
}

std::uint64_t Recorder::samples() const {
  State& st = state();
  std::lock_guard lock(st.profile_mutex);
  return st.samples;
}

std::string Recorder::collapsed() const {
  State& st = state();
  std::map<std::string, std::uint64_t> weights;
  {
    std::lock_guard lock(st.profile_mutex);
    weights = st.weights;
  }
  return render_collapsed(weights);
}

std::string Recorder::self_slice(std::uint64_t since_us) {
  std::map<std::string, std::uint64_t> weights;
  const std::uint32_t me = trace_thread_id();
  State& st = state();
  {
    std::lock_guard lock(st.profile_mutex);
    for (const RecentSample& sample : st.recent) {
      if (sample.tid == me && sample.time_us >= since_us) {
        ++weights[sample.stack];
      }
    }
  }
  // Synchronous self-sample: even when the query outran every sampler tick,
  // the slice still names where the thread is right now.
  std::string key;
  std::uint32_t tid = 0;
  if (read_self(key, tid)) ++weights[key];
  return render_collapsed(weights);
}

void Recorder::clear() {
  State& st = state();
  {
    std::lock_guard lock(st.pool_mutex);
    for (ThreadRecord* r : st.records) {
      // seq 0 marks a slot empty. A test helper: not expected to race with
      // writers for correctness-critical state.
      for (Slot& slot : r->slots) slot.seq.store(0, std::memory_order_relaxed);
      r->head.store(0, std::memory_order_relaxed);
    }
  }
  std::lock_guard lock(st.profile_mutex);
  st.weights.clear();
  st.recent.clear();
  st.samples = 0;
}

}  // namespace dp::obs
