// Regenerates Figure 7: turnaround time for differential provenance queries
// (DiffProv) next to classic single-tree provenance queries (the Y!
// baseline), for all eight scenarios.
//
// Shapes to check (section 6.6):
//  * query time is dominated by replay, not by DiffProv's reasoning;
//  * a DiffProv query costs roughly 2x a Y! query on the SDN scenarios: one
//    replay yields both trees (the paper batches its good- and bad-tree
//    replays), and DiffProv replays once more per round to update the bad
//    tree, so SDN4 (two rounds) costs about 3x;
//  * the MR queries also replay the separate reference job.
//
// The SDN scenarios replay a synthetic OC-192-style capture alongside the
// scenario traffic so that replay genuinely dominates, as in the paper.
#include "bench_util.h"
#include "diffprov/diffprov.h"
#include "mapred/scenario.h"
#include "sdn/scenario.h"
#include "sdn/trace.h"

namespace dp {
namespace {

struct Row {
  std::string name;
  double ybang_ms = 0;       // Y! baseline: replay + query the bad tree
  double diffprov_ms = 0;    // full DiffProv turnaround
  double update_ms = 0;      // DiffProv's UpdateTree replays
  double reasoning_ms = 0;   // DiffProv reasoning ("Other" in the figure)
  int replays = 0;           // every replay in the DiffProv turnaround
};

Row run_sdn(sdn::Scenario s, std::size_t background_packets) {
  // Attach background traffic (the CAIDA stand-in) to the recorded log.
  sdn::TraceConfig trace;
  trace.rate_mbps = 100.0;
  trace.duration_s = 10.0;
  trace.max_packets = background_packets;
  trace.start_time = 5000;
  EventLog background;
  sdn::generate_trace(trace, background);
  for (const LogRecord& r : background.records()) s.log.append(r);

  Row row;
  row.name = s.name;

  // Y! baseline: one replay + tree projection of the bad event.
  {
    bench::WallTimer timer;
    LogReplayProvider provider(s.program, s.topology, s.log);
    const BadRun run = provider.replay_bad({});
    const auto tree = locate_tree(*run.graph, s.bad_event);
    row.ybang_ms = timer.millis();
    if (!tree) row.name += " (!)";
  }

  // DiffProv: one replay yields both trees, and diagnose starts from it.
  {
    bench::WallTimer timer;
    LogReplayProvider provider(s.program, s.topology, s.log);
    BadRun run = provider.replay_bad({});
    const auto good = locate_tree(*run.graph, s.good_event);
    DiffProv diffprov(s.program, provider);
    const DiffProvResult result =
        diffprov.diagnose(*good, s.bad_event, std::move(run));
    row.diffprov_ms = timer.millis();
    row.update_ms = result.timing.replay_us / 1e3;
    row.reasoning_ms = result.timing.reasoning_us() / 1e3;
    row.replays = result.timing.replays + 1;  // + the shared initial replay
    if (!result.ok()) row.name += " (failed)";
  }
  return row;
}

Row run_mr(const mapred::Scenario& s) {
  Row row;
  row.name = s.name;
  {
    // Y! baseline on the bad job only.
    bench::WallTimer timer;
    if (s.declarative) {
      const EventLog log = mapred::declarative_job_log(s.store, s.bad_config);
      LogReplayProvider provider(s.model, Topology{}, log);
      const BadRun run = provider.replay_bad({});
      (void)locate_tree(*run.graph, s.bad_event);
    } else {
      mapred::WordCountReplayProvider provider(s.store, s.bad_config);
      const BadRun run = provider.replay_bad({});
      (void)locate_tree(*run.graph, s.bad_event);
    }
    row.ybang_ms = timer.millis();
  }
  {
    bench::WallTimer timer;
    const mapred::Diagnosis d = mapred::diagnose(s);
    row.diffprov_ms = timer.millis();
    row.update_ms = d.result.timing.replay_us / 1e3;
    row.reasoning_ms = d.result.timing.reasoning_us() / 1e3;
    // + the reference-job and bad-job replays mapred::diagnose runs first.
    row.replays = d.result.timing.replays + 2;
    if (!d.result.ok()) row.name += " (failed)";
  }
  return row;
}

}  // namespace
}  // namespace dp

int main() {
  using namespace dp;
  bench::print_header(
      "Figure 7: query turnaround, DiffProv vs. classic provenance (Y!)",
      "paper Figure 7 (section 6.6)");

  std::vector<Row> rows;
  for (const sdn::Scenario& s : sdn::all_scenarios()) {
    rows.push_back(run_sdn(s, 20'000));
  }
  mapred::CorpusConfig corpus;
  corpus.files = 8;
  corpus.lines_per_file = 250;  // the "1 GB text corpus" stand-in
  for (const mapred::Scenario& s : mapred::all_scenarios(corpus)) {
    rows.push_back(run_mr(s));
  }

  bench::print_row({"Query", "Y! (ms)", "DiffProv (ms)", "UpdateTree (ms)",
                    "reasoning", "replays", "DiffProv/Y!"},
                   10, 16);
  bench::print_row({"-----", "-------", "-------------", "---------------",
                    "---------", "-------", "-----------"},
                   10, 16);
  for (const Row& row : rows) {
    bench::print_row({row.name, bench::fmt(row.ybang_ms),
                      bench::fmt(row.diffprov_ms), bench::fmt(row.update_ms),
                      bench::fmt(row.reasoning_ms, 2) + " ms",
                      std::to_string(row.replays),
                      bench::fmt(row.diffprov_ms / row.ybang_ms, 2) + "x"},
                     10, 16);
  }
  std::printf(
      "\nShape check: replay dominates (reasoning is ms-scale). One replay\n"
      "yields both trees, so a one-round DiffProv query costs ~2x a Y!\n"
      "query (the extra UpdateTree replay); SDN4 pays one more round; the\n"
      "MR queries also replay the separate reference job.\n");
  return 0;
}
