// Seeded inputs of the SDN workloads: background traffic that straddles the
// diagnosed packets (t=1000..1100 in every SDN scenario).
#pragma once

#include <cstddef>
#include <cstdint>

#include "replay/event_log.h"

namespace perfbench {

/// Background packets per SDN log at 1x input size.
constexpr std::size_t kBackgroundPackets = 5000;

/// The before-half fills [kBeforeStart, kBeforeEnd); the after-half starts
/// at kAfterStart with one packet every kAfterGap ticks.
constexpr dp::LogicalTime kBeforeStart = 200;
constexpr dp::LogicalTime kBeforeEnd = 950;
constexpr dp::LogicalTime kAfterStart = 1300;
constexpr dp::LogicalTime kAfterGap = 100;

struct Background {
  std::size_t before_packets = 0;
  std::size_t after_packets = 0;
  dp::EventLog before;  // time-ordered
  dp::EventLog after;   // time-ordered
};

/// `packets` background packets; the seed drives the trace generator and the
/// before/after split.
Background make_background(std::uint64_t seed, std::size_t packets);

/// The scenario's recorded log followed by the background.
dp::EventLog with_background(const dp::EventLog& scenario_log,
                             const Background& bg);

/// Stable sort by time: the arrival order a live stream requires.
dp::EventLog time_ordered(const dp::EventLog& log);

}  // namespace perfbench
