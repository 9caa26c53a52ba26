// Synthetic packet-trace generation (the CAIDA OC-192 stand-in; see
// DESIGN.md section 4, Substitutions).
//
// Figures 5 and 6 only depend on the packet arrival rate and the fixed-size
// per-packet log record (header + timestamp); Table 1 and Figure 7 only
// depend on which rules fire. A seeded deterministic generator with a
// configurable subnet mix exercises the same code paths as a real capture.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "replay/event_log.h"
#include "util/rng.h"

namespace dp::sdn {

struct TraceConfig {
  double rate_mbps = 100.0;     // offered load
  std::size_t packet_bytes = 500;
  double duration_s = 1.0;      // simulated capture length
  std::size_t max_packets = 0;  // hard cap (0 = none); arithmetic still
                                // scales to the full duration
  std::uint64_t seed = 1;
  NodeName ingress = "sw1";
  int first_packet_id = 100000;
  LogicalTime start_time = 5000;  // after control state has converged
  /// Source subnets to draw from (weighted uniformly). Defaults to a mix
  /// that exercises both the specific and the general rule of Figure 1.
  std::vector<std::string> src_subnets = {"4.3.2.0/24", "4.3.3.0/24",
                                          "10.0.0.0/8", "128.32.0.0/16"};
};

struct TraceStats {
  std::size_t packets = 0;
  double simulated_seconds = 0;   // full configured duration
  std::uint64_t wire_bytes = 0;   // packets * packet_bytes (emitted only)
  double packets_per_second = 0;  // offered pps at the configured rate
};

/// Appends packet events to `log` and returns the stats. Deterministic for
/// a given config.
TraceStats generate_trace(const TraceConfig& config, EventLog& log);

/// Appends `packets` packets on both sides of the built-in scenarios'
/// diagnosed packets (t=1000..1100), as perfbench's cold inputs place them:
/// half in a dense burst over t=200..950 (trace seed `seed`), the rest from
/// t=1300, one every 100 ticks (seed `seed` + 1).
void generate_straddling_trace(std::size_t packets, std::uint64_t seed,
                               EventLog& log);

}  // namespace dp::sdn
