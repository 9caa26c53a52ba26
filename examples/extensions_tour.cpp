// A tour of the features beyond the paper's core algorithm (its section 4.8
// architecture and section 4.9 future-work list):
//
//   1. automatic reference selection -- diagnose with only the bad event;
//   2. delta minimization -- drop redundant changes from Δ;
//   3. decentralized provenance -- per-node shards, queried on demand;
//   4. a third domain (DNS) on the unchanged engine and algorithm.
//
// Build & run:  cmake --build build && ./build/examples/extensions_tour
#include <cstdio>

#include "diffprov/reference.h"
#include "dns/dns.h"
#include "provenance/sharded.h"
#include "runtime/engine.h"
#include "sdn/program.h"
#include "sdn/scenario.h"

using namespace dp;

int main() {
  // --- 1 + 2: auto-reference and minimization on SDN1 --------------------
  const sdn::Scenario s = sdn::sdn1();
  LogReplayProvider provider(s.program, s.topology, s.log);
  const BadRun run = provider.replay_bad({});
  DiffProv diffprov(s.program, provider);

  std::printf("Diagnosing %s with NO reference given...\n",
              s.bad_event.to_string().c_str());
  const AutoDiagnosis auto_result =
      diagnose_with_auto_reference(diffprov, run, s.bad_event);
  if (auto_result.reference) {
    std::printf("  auto-selected reference: %s (tried %zu candidate(s))\n",
                auto_result.reference->to_string().c_str(),
                auto_result.candidates_tried);
  }
  std::printf("%s\n", auto_result.result.to_string().c_str());

  if (auto_result.result.ok() && auto_result.reference) {
    const auto good = locate_tree(*run.graph, *auto_result.reference);
    const DiffProvResult minimized =
        diffprov.minimize_delta(*good, auto_result.result);
    std::printf("After minimization: %zu change(s) remain%s\n\n",
                minimized.changes.size(),
                minimized.changes.size() == auto_result.result.changes.size()
                    ? " (nothing was redundant)"
                    : "");
  }

  // --- 3: decentralized provenance ----------------------------------------
  ShardedProvenance sharded;
  Engine engine(sdn::make_program());
  engine.add_observer(&sharded);
  for (const LogRecord& r : s.log.records()) {
    if (r.op == LogRecord::Op::kInsert) {
      engine.schedule_insert(r.tuple(), r.time);
    } else {
      engine.schedule_delete(r.tuple(), r.time);
    }
  }
  engine.run();
  const auto tree = sharded.project(s.bad_event);
  const auto stats = sharded.last_query_stats();
  std::printf(
      "Sharded provenance: %zu per-node shards; projecting the bad tree\n"
      "materialized %zu vertexes with %zu on-demand remote fetches across\n"
      "%zu shards (paper section 4.8: no global operation).\n\n",
      sharded.shard_count(), stats.vertices_visited, stats.remote_fetches,
      stats.shards_touched);
  (void)tree;

  // --- 4: the DNS domain ---------------------------------------------------
  const dns::Scenario d = dns::stale_record();
  std::printf("DNS scenario: %s\n", d.description.c_str());
  LogReplayProvider dns_provider(d.program, d.topology, d.log);
  const BadRun dns_run = dns_provider.replay_bad({});
  const auto dns_good = locate_tree(*dns_run.graph, d.good_event);
  DiffProv dns_diffprov(d.program, dns_provider);
  const DiffProvResult dns_result =
      dns_diffprov.diagnose(*dns_good, d.bad_event);
  std::printf("%s", dns_result.to_string().c_str());
  std::printf(
      "\nNothing in src/diffprov knows about switches, reducers or\n"
      "resolvers: one algorithm, three domains.\n");
  return dns_result.ok() ? 0 : 1;
}
