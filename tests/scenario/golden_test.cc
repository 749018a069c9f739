// Scenario golden: the full Metrics() of every StandardScenarios(1) report
// under DefaultBlueprint(), printed at round-trip precision and diffed
// against a checked-in file. The simulator promises byte-identical reports
// for a given (spec, blueprint); this pins that promise across code
// changes, not just across ADS_THREADS values, so a hot-path rewrite that
// moves any number (a quantile, a ledger count, a cost) fails here.
//
// Regenerate after an intentional behaviour change:
//   ADS_UPDATE_GOLDENS=1 ctest --test-dir build -R scenario_golden_test

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace ads::scenario {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(ADS_SCENARIO_GOLDEN_DIR) + "/" + name;
}

void CheckGolden(const std::string& name, const std::string& got) {
  const std::string path = GoldenPath(name);
  if (std::getenv("ADS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << got;
    out.close();
    ASSERT_TRUE(out.good()) << "short write to " << path;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "; create it with ADS_UPDATE_GOLDENS=1";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), got)
      << "scenario reports diverged from " << path
      << "; if intentional, regenerate with ADS_UPDATE_GOLDENS=1";
}

/// One line per metric, "<scenario> <metric> <value>", with %.17g so
/// every double round-trips: a one-ulp change is a diff.
std::string RenderReport(const ScenarioReport& report) {
  std::string out;
  char value[64];
  for (const auto& [metric, v] : report.Metrics()) {
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += report.scenario + " " + metric + " " + value + "\n";
  }
  return out;
}

TEST(ScenarioGoldenTest, StandardPackUnderDefaultBlueprint) {
  const Blueprint bp = DefaultBlueprint();
  std::string got = "blueprint " + bp.Key() + "\n";
  for (const ScenarioSpec& spec : StandardScenarios(1)) {
    got += RenderReport(RunScenario(spec, bp));
  }
  CheckGolden("standard_pack.txt", got);
}

}  // namespace
}  // namespace ads::scenario
