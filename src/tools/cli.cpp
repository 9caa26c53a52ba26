#include "tools/cli.h"

#include <algorithm>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>

#include "ndlog/parser.h"
#include "obs/obs.h"
#include "obs/recorder.h"
#include "service/diagnose.h"
#include "service/problem.h"

namespace dp::cli {

namespace {

struct Options {
  std::string scenario;
  std::string program_path;
  std::string log_path;
  std::optional<Tuple> good_event;
  std::optional<Tuple> bad_event;
  bool auto_reference = false;
  bool minimize = false;
  std::string show_tree;  // "good" | "bad" | ""
  std::string dot_path;
  bool list_scenarios = false;
  std::string dump_log;  // --dump-log NAME: print a scenario's event log
  Topology topology;
  std::string trace_path;    // --trace-out: Chrome trace-event JSON
  std::string metrics_path;  // --metrics-out: metrics registry JSON
  std::string profile_path;  // --profile-out: collapsed stacks (flamegraph)
  bool stats = false;        // --stats: human-readable metrics table
  std::string exec;          // --exec: fullscan | row (default row)
};

constexpr const char* kUsage =
    "usage: diffprov_cli (--scenario NAME | --program FILE --log FILE)\n"
    "                    --bad 'EVENT' (--good 'EVENT' | --auto-reference)\n"
    "                    [--minimize] [--show-tree good|bad] [--dot FILE]\n"
    "                    [--link A B DELAY]... [--list-scenarios]\n"
    "                    [--dump-log NAME]\n"
    "                    [--trace-out FILE] [--metrics-out FILE] [--stats]\n"
    "                    [--profile-out FILE] [--exec fullscan|row]\n"
    "\n"
    "execution variants (outputs are byte-identical; CI diffs them):\n"
    "  --exec fullscan     reference evaluator, no join plans (test oracle)\n"
    "  --exec row          compiled join plans with indexed joins (default)\n"
    "\n"
    "observability:\n"
    "  --trace-out FILE    write a Chrome trace-event JSON of the diagnosis\n"
    "                      (open in ui.perfetto.dev or chrome://tracing)\n"
    "  --metrics-out FILE  write the dp.* metrics registry as JSON\n"
    "  --profile-out FILE  sample the diagnosis with the scope profiler and\n"
    "                      write weighted collapsed stacks (pipe into\n"
    "                      flamegraph.pl or load in speedscope)\n"
    "  --stats             print the metrics registry as a table\n"
    "  --dump-log NAME     print a builtin scenario's event log as text\n"
    "                      (streamable into diffprovd via --ingest)\n"
    "\n"
    "the same queries can be served warm by the diffprovd daemon; see\n"
    "diffprovd --help and diffprov_client --help\n";

std::optional<std::string> read_file(const std::string& path,
                                     std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  Options options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&](const char* what) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        err << arg << " requires " << what << "\n" << kUsage;
        return std::nullopt;
      }
      return args[++i];
    };
    try {
      if (arg == "--scenario") {
        auto v = next("a name");
        if (!v) return 2;
        options.scenario = *v;
      } else if (arg == "--program") {
        auto v = next("a path");
        if (!v) return 2;
        options.program_path = *v;
      } else if (arg == "--log") {
        auto v = next("a path");
        if (!v) return 2;
        options.log_path = *v;
      } else if (arg == "--good") {
        auto v = next("an event tuple");
        if (!v) return 2;
        options.good_event = parse_tuple(*v);
      } else if (arg == "--bad") {
        auto v = next("an event tuple");
        if (!v) return 2;
        options.bad_event = parse_tuple(*v);
      } else if (arg == "--auto-reference") {
        options.auto_reference = true;
      } else if (arg == "--minimize") {
        options.minimize = true;
      } else if (arg == "--show-tree") {
        auto v = next("good|bad");
        if (!v) return 2;
        options.show_tree = *v;
      } else if (arg == "--dot") {
        auto v = next("a path");
        if (!v) return 2;
        options.dot_path = *v;
      } else if (arg == "--link") {
        if (i + 3 >= args.size()) {
          err << "--link requires: A B DELAY\n";
          return 2;
        }
        const std::string a = args[++i];
        const std::string b = args[++i];
        options.topology.connect(a, b, std::stoll(args[++i]));
      } else if (arg == "--list-scenarios") {
        options.list_scenarios = true;
      } else if (arg == "--dump-log") {
        auto v = next("a scenario name");
        if (!v) return 2;
        options.dump_log = *v;
      } else if (arg == "--trace-out") {
        auto v = next("a path");
        if (!v) return 2;
        options.trace_path = *v;
      } else if (arg == "--metrics-out") {
        auto v = next("a path");
        if (!v) return 2;
        options.metrics_path = *v;
      } else if (arg == "--profile-out") {
        auto v = next("a path");
        if (!v) return 2;
        options.profile_path = *v;
      } else if (arg == "--stats") {
        options.stats = true;
      } else if (arg == "--exec") {
        auto v = next("fullscan|row");
        if (!v) return 2;
        if (*v != "fullscan" && *v != "row") {
          err << "--exec must be fullscan or row\n";
          return 2;
        }
        options.exec = *v;
      } else if (arg == "--help" || arg == "-h") {
        out << kUsage;
        return 0;
      } else {
        err << "unknown option '" << arg << "'\n" << kUsage;
        return 2;
      }
    } catch (const std::exception& e) {
      err << "bad argument for " << arg << ": " << e.what() << "\n";
      return 2;
    }
  }
  if (options.list_scenarios) {
    service::list_scenarios(out);
    return 0;
  }
  if (!options.dump_log.empty()) {
    const auto problem = service::builtin_scenario(options.dump_log, err);
    if (!problem) return 2;
    // Arrival (time) order, not authoring order: scenario logs group records
    // by kind, but a live tap delivers them time-sorted and the ingest
    // stream's append contract is watermark-monotone. The stable sort keeps
    // same-time records in log order, which is exactly the (time, seq) order
    // batch replay processes them in -- so streaming this output reproduces
    // the scenario byte for byte.
    std::vector<LogRecord> records = problem->log.records();
    std::stable_sort(records.begin(), records.end(),
                     [](const LogRecord& a, const LogRecord& b) {
                       return a.time < b.time;
                     });
    EventLog sorted;
    for (const LogRecord& record : records) sorted.append(record);
    out << sorted.to_text();
    return 0;
  }

  // Assemble the problem (shared with the diffprovd service, so the two
  // front-ends agree on the scenario catalogue and file formats).
  std::optional<service::Problem> problem;
  if (!options.scenario.empty()) {
    problem = service::builtin_scenario(options.scenario, err);
    if (!problem) return 2;
  } else if (!options.program_path.empty() && !options.log_path.empty()) {
    const auto program_text = read_file(options.program_path, err);
    const auto log_text = read_file(options.log_path, err);
    if (!program_text || !log_text) return 2;
    try {
      problem =
          service::parse_problem(*program_text, *log_text, options.topology);
    } catch (const std::exception& e) {
      err << e.what() << "\n";
      return 2;
    }
  } else {
    err << kUsage;
    return 2;
  }
  if (options.good_event) problem->good_event = options.good_event;
  if (options.bad_event) problem->bad_event = options.bad_event;
  // --auto-reference overrides a built-in scenario's default reference
  // (an explicit --good still wins).
  if (options.auto_reference && !options.good_event) {
    problem->good_event.reset();
  }
  if (!problem->bad_event) {
    err << "no event of interest: pass --bad 'EVENT'\n";
    return 2;
  }
  if (!problem->good_event && !options.auto_reference) {
    err << "no reference: pass --good 'EVENT' or --auto-reference\n";
    return 2;
  }

  // Observability: spans flow into the default tracer once it is enabled;
  // engines and the recorder publish into the default registry so one dump
  // covers the whole pipeline.
  if (!options.trace_path.empty()) obs::default_tracer().set_enabled(true);
  if (!options.profile_path.empty()) {
    // The sampler snapshots this thread's scope stack while the diagnosis
    // runs; diagnosis *output* is unchanged (the recorder only observes).
    obs::Recorder::instance().start_sampler(std::chrono::milliseconds(2));
  }
  ReplayOptions replay_options;
  replay_options.engine_config.metrics = &obs::default_registry();
  replay_options.engine_config.use_join_plans = options.exec != "fullscan";

  service::DiagnoseSpec spec;
  spec.good_event = problem->good_event;
  spec.bad_event = *problem->bad_event;
  spec.minimize = options.minimize;
  spec.show_tree = options.show_tree;
  spec.want_dot = !options.dot_path.empty();

  const service::DiagnoseOutcome outcome =
      service::diagnose_problem(*problem, spec, replay_options);
  if (!options.profile_path.empty()) {
    obs::Recorder::instance().stop_sampler();
  }

  out << outcome.pre;
  if (!options.dot_path.empty() && !outcome.dot.empty()) {
    std::ofstream dot(options.dot_path);
    dot << outcome.dot;
    out << "wrote " << options.dot_path << "\n";
  }
  if (!outcome.err.empty()) {
    err << outcome.err;
    return outcome.exit_code;
  }
  out << outcome.out;

  if (!options.trace_path.empty()) {
    std::ofstream trace(options.trace_path, std::ios::binary);
    if (!trace) {
      err << "cannot write " << options.trace_path << "\n";
      return 2;
    }
    trace << obs::default_tracer().to_chrome_json();
    out << "wrote trace (" << obs::default_tracer().size() << " events) to "
        << options.trace_path << "\n";
  }
  if (!options.metrics_path.empty()) {
    std::ofstream metrics(options.metrics_path, std::ios::binary);
    if (!metrics) {
      err << "cannot write " << options.metrics_path << "\n";
      return 2;
    }
    metrics << obs::default_registry().to_json();
    out << "wrote metrics (" << obs::default_registry().size()
        << " series) to " << options.metrics_path << "\n";
  }
  if (!options.profile_path.empty()) {
    std::ofstream profile(options.profile_path, std::ios::binary);
    if (!profile) {
      err << "cannot write " << options.profile_path << "\n";
      return 2;
    }
    profile << obs::Recorder::instance().collapsed();
    out << "wrote profile (" << obs::Recorder::instance().samples()
        << " samples) to " << options.profile_path << "\n";
  }
  if (options.stats) out << obs::default_registry().to_text();

  return outcome.exit_code;
}

}  // namespace dp::cli
