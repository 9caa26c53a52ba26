// Workload inputs shared by the SDN workloads, and the replay probe that
// splits one replay into its runtime and provenance shares.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.h"
#include "inputs.h"
#include "sdn/trace.h"

namespace perfbench {

Background make_background(std::uint64_t seed, std::size_t packets) {
  dp::Rng rng(seed ^ 0x5bd1e995u);
  Background bg;
  // Seeded split: 48-52% of the packets precede the diagnosed ones (narrow,
  // so that seeds vary the inputs without moving the workload's cost).
  const double share = 0.48 + 0.04 * rng.next_double();
  bg.before_packets = static_cast<std::size_t>(
      std::llround(share * static_cast<double>(packets)));
  bg.after_packets = packets - bg.before_packets;

  // Before: a dense burst between control-state convergence and the first
  // diagnosed packet (t=1000), several packets per logical tick.
  dp::sdn::TraceConfig before;
  before.seed = seed;
  before.max_packets = bg.before_packets;
  before.duration_s = 1e6;
  before.start_time = kBeforeStart;
  const double before_gap =
      static_cast<double>(kBeforeEnd - kBeforeStart) /
      static_cast<double>(std::max<std::size_t>(bg.before_packets, 1));
  before.rate_mbps = 1e6 / before_gap * 8.0 *
                     static_cast<double>(before.packet_bytes) / 1e6;
  dp::sdn::generate_trace(before, bg.before);

  // After: spaced wider than a packet's forwarding latency, so a live
  // stream quiesced between two appends never has to rebuild.
  dp::sdn::TraceConfig after;
  after.seed = seed + 1;
  after.max_packets = bg.after_packets;
  after.duration_s = 1e6;
  after.start_time = kAfterStart;
  after.first_packet_id = before.first_packet_id +
                          static_cast<int>(bg.before_packets);
  after.rate_mbps = 1e6 / static_cast<double>(kAfterGap) * 8.0 *
                    static_cast<double>(after.packet_bytes) / 1e6;
  dp::sdn::generate_trace(after, bg.after);
  return bg;
}

dp::EventLog with_background(const dp::EventLog& scenario_log,
                             const Background& bg) {
  dp::EventLog log;
  for (const dp::LogRecord& r : scenario_log.records()) log.append(r);
  for (const dp::LogRecord& r : bg.before.records()) log.append(r);
  for (const dp::LogRecord& r : bg.after.records()) log.append(r);
  return log;
}

dp::EventLog time_ordered(const dp::EventLog& log) {
  std::vector<dp::LogRecord> records = log.records();
  std::stable_sort(records.begin(), records.end(),
                   [](const dp::LogRecord& a, const dp::LogRecord& b) {
                     return a.time < b.time;
                   });
  dp::EventLog out;
  for (const dp::LogRecord& r : records) out.append(r);
  return out;
}

namespace {

/// One run of the bare engine (no observer) and one full replay over the
/// same input: the runtime/provenance split of a replay.
struct ReplayProbe {
  double run_ms = 0;     // schedule + Engine::run(), no observer
  double replay_ms = 0;  // replay(): engine + provenance recorder
  dp::Engine::Stats stats;
  std::size_t vertices = 0;
  double graph_mb = 0;
};

constexpr int kProbeReps = 3;

ReplayProbe probe_replay(const dp::Program& program,
                         const dp::Topology& topology, const dp::EventLog& log) {
  std::vector<double> run_ms;
  std::vector<double> replay_ms;
  ReplayProbe probe;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    {
      const auto start = Clock::now();
      dp::Engine engine(program);
      for (const dp::Topology::Link& link : topology.links) {
        engine.add_link(link.a, link.b, link.delay);
      }
      for (const dp::LogRecord& r : log.records()) {
        if (r.op == dp::LogRecord::Op::kInsert) {
          engine.schedule_insert(r.tuple(), r.time);
        } else {
          engine.schedule_delete(r.tuple(), r.time);
        }
      }
      engine.run();
      run_ms.push_back(ms_since(start));
      probe.stats = engine.stats();
    }
    {
      const auto start = Clock::now();
      const dp::ReplayResult replayed = dp::replay(program, topology, log);
      replay_ms.push_back(ms_since(start));
      probe.vertices = replayed.graph().size();
      probe.graph_mb =
          static_cast<double>(replayed.graph().resident_bytes()) / (1 << 20);
    }
  }
  probe.run_ms = median(run_ms);
  probe.replay_ms = median(replay_ms);
  return probe;
}

}  // namespace

double probe_scales(Result& result, const dp::Program& program,
                    const dp::Topology& topology,
                    const std::function<dp::EventLog(double)>& make_log) {
  std::vector<double> sizes;
  std::vector<double> run_ms_by_size;
  ReplayProbe probe;
  for (const double scale : {0.5, 1.0, 2.0}) {
    const dp::EventLog log = make_log(scale);
    const ReplayProbe p = probe_replay(program, topology, log);
    sizes.push_back(static_cast<double>(log.size()));
    run_ms_by_size.push_back(p.run_ms);
    if (scale == 1.0) probe = p;
  }
  const auto& s = probe.stats;
  const double events = static_cast<double>(std::max<std::uint64_t>(s.events_processed, 1));
  const double slope = loglog_slope(sizes, run_ms_by_size);
  result.add("replay.replay_ms", probe.replay_ms, "ms");
  result.add("runtime.run_ms", probe.run_ms, "ms");
  result.add("runtime.ns_per_event", probe.run_ms * 1e6 / events, "ns");
  result.add("runtime.events", static_cast<double>(s.events_processed), "count");
  result.add("runtime.derivations", static_cast<double>(s.derivations), "count");
  result.add("runtime.probes_per_event",
             static_cast<double>(s.index_probes) / events, "ratio");
  result.add("runtime.match_ratio",
             s.tuples_scanned == 0 ? 0
                                   : static_cast<double>(s.tuples_matched) /
                                         static_cast<double>(s.tuples_scanned),
             "ratio");
  result.add("runtime.scale_slope", slope, "ratio");
  result.add("provenance.record_ms", probe.replay_ms - probe.run_ms, "ms");
  result.add("provenance.vertices_per_event",
             static_cast<double>(probe.vertices) / events, "ratio");
  result.add("provenance.graph_mb", probe.graph_mb, "MB");
  char line[256];
  std::snprintf(line, sizeof line,
                "engine scale: run_ms %.2f / %.2f / %.2f at %.0f / %.0f / %.0f "
                "log records (log-log slope %.3f)",
                run_ms_by_size[0], run_ms_by_size[1], run_ms_by_size[2], sizes[0],
                sizes[1], sizes[2], slope);
  result.note(line);
  return probe.replay_ms > 0 ? probe.run_ms / probe.replay_ms : 0;
}

}  // namespace perfbench
