// Golden CLI reports. Each file under tests/golden/ pins one diffprov_cli
// report: a first line "exit N" with the exit code, then stdout verbatim.
// The --exec fullscan diff cannot catch a change to the pipeline itself
// (both variants run through it), so these pin the text directly.
//
// To regenerate one file after an intended change to its report:
//   out=$(diffprov_cli --scenario sdn1 --auto-reference); code=$?
//   printf 'exit %d\n%s\n' "$code" "$out" > tests/golden/sdn1.auto.txt
#include <gtest/gtest.h>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli.h"

namespace dp {
namespace {

struct GoldenCase {
  std::string scenario;
  bool auto_reference;
};

std::string golden_name(const GoldenCase& c) {
  return c.scenario + (c.auto_reference ? ".auto" : "");
}

// Names the case in test listings (gtest would print its raw bytes).
void PrintTo(const GoldenCase& c, std::ostream* os) { *os << golden_name(c); }

class GoldenReport : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReport, MatchesTheRecordedReport) {
  const GoldenCase& c = GetParam();
  const std::string path =
      std::string(DP_GOLDEN_DIR) + "/" + golden_name(c) + ".txt";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream expected;
  expected << in.rdbuf();

  std::vector<std::string> args = {"--scenario", c.scenario};
  if (c.auto_reference) args.emplace_back("--auto-reference");
  std::ostringstream out;
  std::ostringstream err;
  const int exit_code = cli::run(args, out, err);
  EXPECT_EQ("exit " + std::to_string(exit_code) + "\n" + out.str(),
            expected.str());
  EXPECT_EQ(err.str(), "");
}

std::vector<GoldenCase> all_cases() {
  std::vector<GoldenCase> cases;
  for (const char* s : {"sdn1", "sdn2", "sdn3", "sdn4", "DNS-stale-record",
                        "DNS-stale-replica"}) {
    cases.push_back({s, false});
    cases.push_back({s, true});
  }
  cases.push_back({"mr1-d", true});
  cases.push_back({"mr2-d", true});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Cli, GoldenReport, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      std::string name = golden_name(info.param);
      for (char& ch : name) {
        if (ch == '-' || ch == '.') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace dp
