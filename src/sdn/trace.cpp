#include "sdn/trace.h"

#include <algorithm>
#include <cmath>

namespace dp::sdn {

TraceStats generate_trace(const TraceConfig& config, EventLog& log) {
  TraceStats stats;
  stats.packets_per_second =
      config.rate_mbps * 1e6 / 8.0 / static_cast<double>(config.packet_bytes);
  stats.simulated_seconds = config.duration_s;

  const double total =
      stats.packets_per_second * config.duration_s;
  std::size_t count = static_cast<std::size_t>(std::llround(total));
  if (config.max_packets != 0 && count > config.max_packets) {
    count = config.max_packets;
  }
  const double interarrival_us = 1e6 / stats.packets_per_second;

  Rng rng(config.seed);
  std::vector<IpPrefix> subnets;
  subnets.reserve(config.src_subnets.size());
  for (const std::string& s : config.src_subnets) {
    subnets.push_back(*IpPrefix::parse(s));
  }

  for (std::size_t i = 0; i < count; ++i) {
    const IpPrefix& subnet = subnets[rng.next_below(subnets.size())];
    const std::uint32_t host_bits =
        subnet.length() >= 32
            ? 0
            : static_cast<std::uint32_t>(rng.next_below(
                  1ull << (32 - static_cast<unsigned>(subnet.length()))));
    const Ipv4 src(subnet.base().value() | host_bits);
    const Ipv4 dst(static_cast<std::uint32_t>(0x08080000u) |
                   static_cast<std::uint32_t>(rng.next_below(1 << 16)));
    const LogicalTime t =
        config.start_time +
        static_cast<LogicalTime>(std::llround(interarrival_us * double(i)));
    log.append_insert(
        Tuple("packet", {Value(config.ingress),
                         Value(config.first_packet_id + std::int64_t(i)),
                         Value(src), Value(dst)}),
        t);
    ++stats.packets;
    stats.wire_bytes += config.packet_bytes;
  }
  return stats;
}

void generate_straddling_trace(std::size_t packets, std::uint64_t seed,
                               EventLog& log) {
  // One logical tick is a microsecond of the capture, so a gap of g ticks
  // between packets of b bytes is a rate of 8 b / g Mbps.
  TraceConfig before;
  before.seed = seed;
  before.max_packets = packets / 2;
  before.duration_s = 1e6;
  before.start_time = 200;
  const double gap =
      750.0 / static_cast<double>(std::max<std::size_t>(packets / 2, 1));
  before.rate_mbps = 8.0 * static_cast<double>(before.packet_bytes) / gap;
  generate_trace(before, log);
  TraceConfig after;
  after.seed = seed + 1;
  after.max_packets = packets - before.max_packets;
  after.duration_s = 1e6;
  after.start_time = 1300;
  after.first_packet_id =
      before.first_packet_id + static_cast<int>(before.max_packets);
  after.rate_mbps = 8.0 * static_cast<double>(after.packet_bytes) / 100.0;
  generate_trace(after, log);
}

}  // namespace dp::sdn
