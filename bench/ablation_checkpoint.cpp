// Ablation: checkpoints for historical-state reconstruction (paper section
// 4.8: "a log of tuple updates along with some checkpoints, so that the
// system state at any point in the past can be efficiently reconstructed").
//
// The checkpoint is an Engine::fork() copy, as UpdateTree's fork points are
// (diffprov.h). Reconstructs the network's state at the end of a long run
// twice: by replaying the entire log from the start, and by forking an
// engine paused at a ¾-run point and running only the log suffix on the
// fork. Both must hold identical flow, compiled and delivered state.
#include <memory>

#include "bench_util.h"
#include "replay/replay_engine.h"
#include "sdn/program.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"

int main() {
  using namespace dp;
  bench::print_header("Ablation: full replay vs. fork point + suffix replay",
                      "paper section 4.8 (temporal provenance support)");

  // A long run: SDN1 config plus lots of traffic, with a config change
  // mid-stream so the suffix matters.
  sdn::Scenario s = sdn::sdn1();
  sdn::TraceConfig trace;
  trace.rate_mbps = 100.0;
  trace.duration_s = 10.0;
  trace.max_packets = 40'000;
  EventLog background;
  sdn::generate_trace(trace, background);
  for (const LogRecord& r : background.records()) s.log.append(r);
  const LogicalTime fork_time = 1'200'000;  // ~3/4 into the capture
  sdn::add_policy(s.log, "sw3", 50, "99.0.0.0/8", "sw4",
                  fork_time + 500);  // suffix-only config change

  // The ¾-run point: an engine fed the records up to the cut and run to it.
  // Derived events it has queued past the cut travel with its fork.
  Engine point(sdn::make_program());
  for (const LogRecord& r : s.log.records()) {
    if (r.time <= fork_time) schedule_record(point, r);
  }
  point.run_until(fork_time);

  // (a) Full replay from the beginning.
  bench::WallTimer full_timer;
  Engine full_engine(sdn::make_program());
  for (const LogRecord& r : s.log.records()) schedule_record(full_engine, r);
  full_engine.run();
  const double full_ms = full_timer.millis();

  // (b) Fork the point and replay only the suffix.
  bench::WallTimer suffix_timer;
  const std::unique_ptr<Engine> fork = point.fork();
  const double copy_ms = suffix_timer.millis();
  for (const LogRecord& r : s.log.records()) {
    if (r.time > fork_time) schedule_record(*fork, r);
  }
  fork->run();
  const double suffix_ms = suffix_timer.millis();

  bench::print_row({"Reconstruction", "Time (ms)"});
  bench::print_row({"--------------", "---------"});
  bench::print_row({"full replay", bench::fmt(full_ms, 1)});
  bench::print_row({"fork + suffix", bench::fmt(suffix_ms, 1)});
  std::printf("\nFork point at t=%lld after %llu of %llu events; copy %.1f ms.\n",
              static_cast<long long>(fork_time),
              static_cast<unsigned long long>(point.stats().events_processed),
              static_cast<unsigned long long>(
                  full_engine.stats().events_processed),
              copy_ms);
  bool state_equal = true;
  for (const char* table : {"flowEntry", "compiled", "delivered"}) {
    const std::vector<Tuple> full = full_engine.live_tuples(table);
    const std::vector<Tuple> forked = fork->live_tuples(table);
    std::printf("  %-10s full %zu, fork %zu: %s\n", table, full.size(),
                forked.size(), full == forked ? "equal" : "DIFFERENT");
    state_equal = state_equal && full == forked;
  }
  std::printf(
      "Shape check: both reconstructions hold identical flow/compiled/\n"
      "delivered state: %s; the suffix path is %.1fx faster.\n",
      state_equal ? "YES" : "NO (unexpected)", full_ms / suffix_ms);
  return state_equal ? 0 : 1;
}
