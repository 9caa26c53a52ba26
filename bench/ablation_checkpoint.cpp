// Ablation: checkpoints for historical-state reconstruction (paper section
// 4.8: "a log of tuple updates along with some checkpoints, so that the
// system state at any point in the past can be efficiently reconstructed").
//
// Reconstructs the network's configuration state at the end of a long run
// twice: by replaying the entire log from the start, and by restoring the
// latest checkpoint and replaying only the suffix. Both must converge to
// identical flow tables.
#include "bench_util.h"
#include "replay/replay_engine.h"
#include "sdn/program.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"

namespace dp {
namespace {

std::vector<Tuple> flow_state(const Engine& engine) {
  std::vector<Tuple> state = engine.live_tuples("flowEntry");
  for (Tuple& t : engine.live_tuples("compiled")) state.push_back(t);
  return state;
}

}  // namespace
}  // namespace dp

int main() {
  using namespace dp;
  bench::print_header("Ablation: full replay vs. checkpoint + suffix replay",
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
  const LogicalTime checkpoint_time = 1'200'000;  // ~3/4 into the capture
  sdn::add_policy(s.log, "sw3", 50, "99.0.0.0/8", "sw4",
                  checkpoint_time + 500);  // suffix-only config change

  // Run to the checkpoint time and capture there: the restore replays the
  // log records after the capture time, so it must be the cut itself.
  Engine prefix_engine(sdn::make_program());
  for (const LogRecord& r : s.log.records()) {
    if (r.time <= checkpoint_time) schedule_record(prefix_engine, r);
  }
  prefix_engine.run_until(checkpoint_time);
  const Checkpoint checkpoint = Checkpoint::capture(prefix_engine);

  // (a) Full replay from the beginning.
  bench::WallTimer full_timer;
  Engine full_engine(sdn::make_program());
  for (const LogRecord& r : s.log.records()) schedule_record(full_engine, r);
  full_engine.run();
  const double full_ms = full_timer.millis();

  // (b) Restore the checkpoint and replay only the suffix.
  bench::WallTimer suffix_timer;
  const std::unique_ptr<Engine> suffix_engine =
      restore_from_checkpoint(sdn::make_program(), {}, checkpoint, s.log);
  const double suffix_ms = suffix_timer.millis();

  const bool state_equal =
      flow_state(full_engine) == flow_state(*suffix_engine);
  bench::print_row({"Reconstruction", "Time (ms)"});
  bench::print_row({"--------------", "---------"});
  bench::print_row({"full replay", bench::fmt(full_ms, 1)});
  bench::print_row({"checkpoint + suffix", bench::fmt(suffix_ms, 1)});
  std::printf(
      "\nCheckpoint: %zu base tuples captured at t=%lld.\n"
      "Shape check: both reconstructions converge to identical flow/compiled\n"
      "state: %s; the suffix path is %.1fx faster.\n",
      checkpoint.base_tuples().size(),
      static_cast<long long>(checkpoint.captured_at()),
      state_equal ? "YES" : "NO (unexpected)", full_ms / suffix_ms);
  return state_equal ? 0 : 1;
}
