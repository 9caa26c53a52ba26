// Regenerates Figure 7: turnaround time for differential provenance queries
// (DiffProv) next to classic single-tree provenance queries (the Y!
// baseline), for all eight scenarios.
//
// Both columns replay as the program does: each replay stops at its query's
// horizon (the Y! query at the bad event, DiffProv's initial replay at the
// later of its two events), and DiffProv's UpdateTree replays fork from the
// fork points that initial replay took (LogReplayProvider).
//
// The SDN scenarios replay a synthetic OC-192-style capture alongside the
// scenario traffic so that replay genuinely dominates, as in the paper, in
// two placements:
//  * after: every background packet after the diagnosed ones (t >= 5000),
//    the original layout. A replay that stops at its horizon never reaches
//    it, so each costs a scenario-sized run plus scheduling the whole log,
//    too few events to take a fork point;
//  * straddling: the background on both sides of the diagnosed packets
//    (t=1000..1100), placed as perfbench's cold inputs place it -- half in
//    a dense burst over t=200..950, half from t=1300 one packet every 100
//    ticks. Every replay runs through the first half.
//
// Shapes to check (section 6.6):
//  * query time is dominated by replay, not by DiffProv's reasoning;
//  * with the straddling placement a DiffProv query on SDN1-3 costs at most
//    ~2x a Y! query (the paper's figure): one replay yields both trees, and
//    the UpdateTree round forks from a point shortly before its Δ instead
//    of replaying from t=0. SDN4's first round never finds its expected
//    root, so that fork runs the log to its end;
//  * the MR queries also replay the separate reference job.
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
  int forked = 0;            // UpdateTree replays forked from a fork point
};

enum class Background { kAfter, kStraddling };

/// Attaches `packets` background packets (the CAIDA stand-in) to the log.
void add_background(EventLog& log, std::size_t packets, Background where) {
  if (where == Background::kAfter) {
    sdn::TraceConfig trace;
    trace.rate_mbps = 100.0;
    trace.duration_s = 10.0;
    trace.max_packets = packets;
    trace.start_time = 5000;
    sdn::generate_trace(trace, log);
    return;
  }
  sdn::generate_straddling_trace(packets, 1, log);
}

Row run_sdn(sdn::Scenario s, std::size_t background_packets,
            Background where) {
  add_background(s.log, background_packets, where);
  Row row;
  row.name = s.name;

  // Y! baseline: one replay, up to the bad event, + its tree projection.
  {
    bench::WallTimer timer;
    LogReplayProvider provider(s.program, s.topology, s.log);
    const BadRun run = provider.replay_bad_to({}, {s.bad_event});
    const auto tree = locate_tree(*run.graph, s.bad_event);
    row.ybang_ms = timer.millis();
    if (!tree) row.name += " (!)";
  }

  // DiffProv: one replay, up to both events, yields both trees; diagnose
  // starts from it and forks its UpdateTree replays from its points.
  {
    bench::WallTimer timer;
    LogReplayProvider provider(s.program, s.topology, s.log);
    BadRun run = provider.replay_bad_to({}, {s.good_event, s.bad_event});
    const auto good = locate_tree(*run.graph, s.good_event);
    DiffProv diffprov(s.program, provider);
    const DiffProvResult result =
        diffprov.diagnose(*good, s.bad_event, std::move(run));
    row.diffprov_ms = timer.millis();
    row.update_ms = result.timing.replay_us / 1e3;
    row.reasoning_ms = result.timing.reasoning_us() / 1e3;
    row.replays = result.timing.replays + 1;  // + the shared initial replay
    row.forked = result.timing.forked_replays;
    if (!result.ok()) row.name += " (failed)";
  }
  return row;
}

Row run_mr(const mapred::Scenario& s) {
  Row row;
  row.name = s.name;
  {
    // Y! baseline on the bad job only, up to the bad event.
    bench::WallTimer timer;
    if (s.declarative) {
      const EventLog log = mapred::declarative_job_log(s.store, s.bad_config);
      LogReplayProvider provider(s.model, Topology{}, log);
      const BadRun run = provider.replay_bad_to({}, {s.bad_event});
      (void)locate_tree(*run.graph, s.bad_event);
    } else {
      mapred::WordCountReplayProvider provider(s.store, s.bad_config);
      const BadRun run = provider.replay_bad_to({}, {s.bad_event});
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
    row.forked = d.result.timing.forked_replays;
    if (!d.result.ok()) row.name += " (failed)";
  }
  return row;
}

void print_rows(const std::vector<Row>& rows) {
  bench::print_row({"Query", "Y! (ms)", "DiffProv (ms)", "UpdateTree (ms)",
                    "reasoning", "replays", "forked", "DiffProv/Y!"},
                   10, 16);
  bench::print_row({"-----", "-------", "-------------", "---------------",
                    "---------", "-------", "------", "-----------"},
                   10, 16);
  for (const Row& row : rows) {
    bench::print_row({row.name, bench::fmt(row.ybang_ms),
                      bench::fmt(row.diffprov_ms), bench::fmt(row.update_ms),
                      bench::fmt(row.reasoning_ms, 2) + " ms",
                      std::to_string(row.replays), std::to_string(row.forked),
                      bench::fmt(row.diffprov_ms / row.ybang_ms, 2) + "x"},
                     10, 16);
  }
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
    rows.push_back(run_sdn(s, 20'000, Background::kAfter));
  }
  mapred::CorpusConfig corpus;
  corpus.files = 8;
  corpus.lines_per_file = 250;  // the "1 GB text corpus" stand-in
  for (const mapred::Scenario& s : mapred::all_scenarios(corpus)) {
    rows.push_back(run_mr(s));
  }
  std::printf("SDN background after the diagnosed packets (t >= 5000):\n");
  print_rows(rows);

  std::vector<Row> straddling;
  for (const sdn::Scenario& s : sdn::all_scenarios()) {
    straddling.push_back(run_sdn(s, 20'000, Background::kStraddling));
  }
  std::printf(
      "\nSDN background straddling the diagnosed packets (perfbench's "
      "placement):\n");
  print_rows(straddling);

  std::printf(
      "\nShape check: replay dominates (reasoning is ms-scale). One replay\n"
      "yields both trees and each UpdateTree round forks from a point\n"
      "shortly before its change, so with the background straddling the\n"
      "diagnosed packets a one-round SDN query costs at most ~2x a Y! query.\n"
      "With it all after them, no replay reaches it and each pays only for\n"
      "scheduling the log, twice for DiffProv. SDN4's first round runs its\n"
      "fork to the end of the log. The MR queries also replay the separate\n"
      "reference job.\n");
  return 0;
}
