#include "service/problem.h"

#include <cctype>
#include <ostream>

#include "dns/dns.h"
#include "mapred/scenario.h"
#include "ndlog/parser.h"
#include "sdn/scenario.h"

namespace dp::service {

std::optional<Problem> builtin_scenario(const std::string& name,
                                        std::ostream& err) {
  for (sdn::Scenario& s : sdn::all_scenarios()) {
    std::string lower = s.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower == name) {
      return Problem{std::move(s.program), std::move(s.topology),
                     std::move(s.log), s.good_event, s.bad_event};
    }
  }
  for (dns::Scenario& s : dns::all_scenarios()) {
    if (s.name == name) {
      return Problem{std::move(s.program), std::move(s.topology),
                     std::move(s.log), s.good_event, s.bad_event};
    }
  }
  for (const char* mr : {"mr1-d", "mr2-d"}) {
    if (name != mr) continue;
    mapred::Scenario s = name == "mr1-d" ? mapred::mr1_declarative()
                                         : mapred::mr2_declarative();
    // The MR built-ins expose only the bad job's log: a reference event from
    // the good job cannot be folded into the same replay soundly, so they
    // require --auto-reference or an explicit good event from the bad run.
    return Problem{std::move(s.model), Topology{},
                   mapred::declarative_job_log(s.store, s.bad_config),
                   std::nullopt, s.bad_event};
  }
  err << "unknown scenario '" << name << "' (try --list-scenarios)\n";
  return std::nullopt;
}

void list_scenarios(std::ostream& out) {
  out << "built-in scenarios:\n";
  for (const sdn::Scenario& s : sdn::all_scenarios()) {
    std::string lower = s.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    out << "  " << lower << "  -- " << s.description << "\n";
  }
  for (const dns::Scenario& s : dns::all_scenarios()) {
    out << "  " << s.name << "  -- " << s.description << "\n";
  }
  out << "  mr1-d  -- declarative MapReduce, changed reducer count "
         "(use --auto-reference)\n";
  out << "  mr2-d  -- declarative MapReduce, buggy mapper deployment "
         "(use --auto-reference)\n";
}

Problem parse_problem(const std::string& program_text,
                      const std::string& log_text, Topology topology) {
  Problem problem;
  problem.program = parse_program(program_text);
  problem.log = EventLog::from_text(log_text);
  problem.topology = std::move(topology);
  return problem;
}

}  // namespace dp::service
