// End-to-end tests of the paper's four SDN scenarios (section 6.2) on the
// Figure-1 network, plus the unsuitable-reference experiment (section 6.3)
// and the trace generator.
#include <gtest/gtest.h>

#include "diffprov/diffprov.h"
#include "diffprov/treediff.h"
#include "sdn/program.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"

namespace dp::sdn {
namespace {

ProvTree query_tree(const Scenario& s, const Tuple& event) {
  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun run = provider.replay_bad({});
  auto tree = locate_tree(*run.graph, event);
  EXPECT_TRUE(tree.has_value()) << event.to_string();
  return std::move(*tree);
}

DiffProvResult run_diffprov(const Scenario& s) {
  const ProvTree good = query_tree(s, s.good_event);
  LogReplayProvider provider(s.program, s.topology, s.log);
  DiffProv diffprov(s.program, provider);
  return diffprov.diagnose(good, s.bad_event);
}

class SdnScenarioTest : public ::testing::TestWithParam<int> {};

TEST_P(SdnScenarioTest, DiffProvPinpointsRootCause) {
  const Scenario s = all_scenarios()[static_cast<std::size_t>(GetParam())];
  const DiffProvResult result = run_diffprov(s);
  ASSERT_EQ(result.status, DiffProvStatus::kSuccess)
      << s.name << ": " << result.to_string();
  EXPECT_EQ(result.changes.size(), s.expected_changes)
      << s.name << ": " << result.to_string();
  EXPECT_EQ(result.rounds, s.expected_rounds) << s.name;
  bool found = false;
  for (const auto& change : result.changes) {
    if (change.to_string().find(s.expected_root_cause) != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << s.name << ": expected root cause containing '"
                     << s.expected_root_cause << "' in\n"
                     << result.to_string();
}

TEST_P(SdnScenarioTest, TreesHaveRealisticSize) {
  // The paper's trees have O(100) vertexes (Table 1: 145-201 for SDN).
  const Scenario s = all_scenarios()[static_cast<std::size_t>(GetParam())];
  const ProvTree good = query_tree(s, s.good_event);
  const ProvTree bad = query_tree(s, s.bad_event);
  EXPECT_GT(good.size(), 30u) << s.name;
  EXPECT_GT(bad.size(), 30u) << s.name;
  EXPECT_LT(good.size(), 1000u) << s.name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SdnScenarioTest,
                         ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return all_scenarios()[static_cast<std::size_t>(
                                                      info.param)]
                               .name;
                         });

TEST(SdnScenarios, Sdn1RootCauseIsThePolicyPrefix) {
  const DiffProvResult result = run_diffprov(sdn1());
  ASSERT_TRUE(result.ok()) << result.to_string();
  ASSERT_EQ(result.changes.size(), 1u);
  const ChangeRecord& change = result.changes[0];
  ASSERT_TRUE(change.before && change.after);
  EXPECT_EQ(change.before->to_string(),
            "policyRoute(@ctl, \"sw2\", 100, 4.3.2.0/24, \"sw6\")");
  EXPECT_EQ(change.after->to_string(),
            "policyRoute(@ctl, \"sw2\", 100, 4.3.2.0/23, \"sw6\")");
}

TEST(SdnScenarios, Sdn2RootCauseIsTheBlockingPolicy) {
  const DiffProvResult result = run_diffprov(sdn2());
  ASSERT_TRUE(result.ok()) << result.to_string();
  ASSERT_EQ(result.changes.size(), 1u);
  const ChangeRecord& change = result.changes[0];
  ASSERT_TRUE(change.before.has_value());
  EXPECT_FALSE(change.after.has_value());  // the conflicting rule is removed
  EXPECT_EQ(change.before->table(), "policyRoute");
}

TEST(SdnScenarios, Sdn3ReferenceLiesInThePast) {
  // The good tree must be queryable even though the rule later expired --
  // the temporal dimension at work.
  const Scenario s = sdn3();
  const ProvTree good = query_tree(s, s.good_event);
  EXPECT_GT(good.size(), 20u);
  const DiffProvResult result = run_diffprov(s);
  ASSERT_TRUE(result.ok()) << result.to_string();
  ASSERT_EQ(result.changes.size(), 1u);
  EXPECT_FALSE(result.changes[0].before.has_value());
  ASSERT_TRUE(result.changes[0].after.has_value());
  EXPECT_EQ(result.changes[0].after->table(), "policyRoute");
}

TEST(SdnScenarios, Sdn4TwoRoundsTwoChanges) {
  const DiffProvResult result = run_diffprov(sdn4());
  ASSERT_TRUE(result.ok()) << result.to_string();
  EXPECT_EQ(result.rounds, 2);
  ASSERT_EQ(result.changes.size(), 2u);
  // Both repaired prefixes widen /24 -> /23, on consecutive hops.
  EXPECT_NE(result.changes[0].to_string().find("sw2"), std::string::npos);
  EXPECT_NE(result.changes[1].to_string().find("sw3a"), std::string::npos);
}

TEST(SdnScenarios, MirroredTrafficReachesDpi) {
  // Sanity: the Figure-1 mirror (s5) produces a second delivery at d1.
  const Scenario s = sdn1();
  const ProvTree mirror = query_tree(
      s, Tuple("delivered", {Value("d1"), Value(1), Value(*Ipv4::parse("4.3.2.1")),
                             Value(*Ipv4::parse("8.8.1.1"))}));
  EXPECT_GT(mirror.size(), 20u);
}

// ----------------------------------------------- unsuitable references --

TEST(BadReferences, AllTenFailWithDiagnosticMessages) {
  const Scenario s = sdn1_with_reference_traffic();
  const auto cases = sdn1_bad_references();
  ASSERT_EQ(cases.size(), 10u);
  int seed_mismatches = 0;
  int immutable_failures = 0;
  for (const BadReferenceCase& c : cases) {
    const ProvTree good = query_tree(s, c.reference_event);
    LogReplayProvider provider(s.program, s.topology, s.log);
    DiffProv diffprov(s.program, provider);
    const DiffProvResult result = diffprov.diagnose(good, s.bad_event);
    EXPECT_FALSE(result.ok()) << c.name << " unexpectedly succeeded:\n"
                              << result.to_string();
    EXPECT_FALSE(result.message.empty()) << c.name;
    if (c.expect_seed_mismatch) {
      EXPECT_EQ(result.status, DiffProvStatus::kSeedTypeMismatch)
          << c.name << ": " << result.to_string();
      ++seed_mismatches;
    } else {
      EXPECT_EQ(result.status, DiffProvStatus::kImmutableChange)
          << c.name << ": " << result.to_string();
      ++immutable_failures;
    }
  }
  // The paper's split: 3 type mismatches, 7 immutable-change failures.
  EXPECT_EQ(seed_mismatches, 3);
  EXPECT_EQ(immutable_failures, 7);
}

// ----------------------------------------------------- trace generator --

TEST(Trace, DeterministicAndRateAccurate) {
  TraceConfig config;
  config.rate_mbps = 8.0;  // 8 Mbps / 500 B = 2000 pps
  config.duration_s = 0.1;
  EventLog a;
  EventLog b;
  const TraceStats sa = generate_trace(config, a);
  const TraceStats sb = generate_trace(config, b);
  EXPECT_EQ(sa.packets, 200u);
  EXPECT_DOUBLE_EQ(sa.packets_per_second, 2000.0);
  EXPECT_EQ(sb.packets, sa.packets);
  EXPECT_EQ(sb.simulated_seconds, sa.simulated_seconds);
  EXPECT_EQ(sb.wire_bytes, sa.wire_bytes);
  EXPECT_EQ(sb.packets_per_second, sa.packets_per_second);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.records()[17], b.records()[17]);  // bitwise determinism
}

TEST(Trace, RespectsMaxPacketsCap) {
  TraceConfig config;
  config.rate_mbps = 1000.0;
  config.duration_s = 1.0;
  config.max_packets = 500;
  EventLog log;
  const TraceStats stats = generate_trace(config, log);
  EXPECT_EQ(stats.packets, 500u);
  // The offered rate is still reported for scaling.
  EXPECT_GT(stats.packets_per_second, 100000.0);
}

TEST(Trace, SourcesFallIntoConfiguredSubnets) {
  TraceConfig config;
  config.rate_mbps = 4.0;
  config.duration_s = 0.1;
  config.src_subnets = {"4.3.2.0/24"};
  EventLog log;
  generate_trace(config, log);
  const auto subnet = *IpPrefix::parse("4.3.2.0/24");
  for (const LogRecord& r : log.records()) {
    EXPECT_TRUE(subnet.contains(r.tuple().at(2).as_ip()))
        << r.tuple().to_string();
  }
}

TEST(Trace, TimestampsFollowInterarrival) {
  TraceConfig config;
  config.rate_mbps = 4.0;  // 1000 pps -> 1000 us spacing
  config.duration_s = 0.01;
  EventLog log;
  generate_trace(config, log);
  ASSERT_GE(log.size(), 2u);
  EXPECT_EQ(log.records()[1].time - log.records()[0].time, 1000);
}

TEST(Trace, ReplaysThroughTheNetwork) {
  // Background traffic must actually flow: replay SDN1 with 100 extra
  // packets and verify deliveries happen for them.
  Scenario s = sdn1();
  TraceConfig config;
  config.rate_mbps = 4.0;
  config.duration_s = 0.1;
  config.start_time = 5000;
  EventLog trace;
  const TraceStats stats = generate_trace(config, trace);
  for (const LogRecord& r : trace.records()) s.log.append(r);

  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun run = provider.replay_bad({});
  std::size_t delivered = 0;
  run.state->scan_table("w2", "delivered", kTimeInfinity - 1,
                        [&](const Tuple&) { ++delivered; });
  // Every background packet is from one of the four subnets; all are routed
  // somewhere (w1 or w2), and the 10.0/8 + 128.32/16 + 4.3.3/24 ones reach
  // w2 alongside the scenario's own bad packet.
  EXPECT_GT(delivered, stats.packets / 4);
}

}  // namespace
}  // namespace dp::sdn
