// The benchmark's correctness oracles must catch a wrong answer: a
// corrupted query result, a prediction one ulp off, a broken fleet ledger
// or a non-reproducible scenario report.

#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "checks.h"
#include "common/rng.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/rules.h"
#include "ml/dataset.h"
#include "ml/forest.h"
#include "report.h"

namespace ads::perfbench {
namespace {

/// Changes one value of `table` by the smallest representable step.
void Corrupt(engine::ColumnTable* table) {
  engine::Column& column = table->ColumnAt(0);
  if (column.type() == engine::ColumnType::kI64) {
    column.I64At(0) += 1;
  } else {
    column.F64At(0) = std::nextafter(column.F64At(0),
                                     std::numeric_limits<double>::infinity());
  }
}

TEST(QueryOracle, AcceptsTheExecutorsAnswersAndCatchesACorruptedOne) {
  workload::TpchGenerator generator(
      workload::TpchGenOptions{.scale_factor = 0.02, .seed = 7});
  auto oracle = QueryOracle::Build(generator);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->names().size(), 6u);
  engine::Optimizer optimizer(&generator.catalog());
  engine::RealExecutor executor(&generator.store());
  for (size_t i = 0; i < oracle->names().size(); ++i) {
    auto logical = generator.MakeQuery(oracle->names()[i]);
    ASSERT_TRUE(logical.ok());
    auto plan = optimizer.Optimize(*logical.value(),
                                   engine::RuleConfig::Default());
    auto result = executor.Execute(*plan);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(oracle->Matches(i, result->table)) << oracle->names()[i];
    ASSERT_GT(result->table.num_rows(), 0u) << oracle->names()[i];
    Corrupt(&result->table);
    EXPECT_FALSE(oracle->Matches(i, result->table)) << oracle->names()[i];
  }
}

TEST(PredictionOracle, CatchesAPredictionOneUlpOff) {
  common::Rng rng(3);
  ml::Dataset data;
  for (int i = 0; i < 200; ++i) {
    std::vector<double> x = {rng.Uniform(-3.0, 3.0), rng.Uniform(-3.0, 3.0)};
    const double label = x[0] - x[1] * x[1];
    data.Add(std::move(x), label);
  }
  ml::RandomForestRegressor forest(
      ml::RandomForestOptions{.num_trees = 4, .max_depth = 4});
  ASSERT_TRUE(forest.Fit(data).ok());
  PredictionOracle oracle(forest, 32, 2, 11);
  ASSERT_EQ(oracle.size(), 32u);
  for (size_t i = 0; i < oracle.size(); ++i) {
    const double served = forest.Predict(oracle.features(i));
    EXPECT_TRUE(oracle.Matches(i, served));
    EXPECT_FALSE(oracle.Matches(
        i, std::nextafter(served, std::numeric_limits<double>::infinity())));
  }
  EXPECT_FALSE(oracle.Matches(oracle.size(), 0.0));
}

TEST(ScenarioChecks, CatchBrokenLedgersAndNonReproducibleReports) {
  scenario::ScenarioSpec spec = scenario::StandardScenarios(1)[0];
  spec.requests = 400;
  const scenario::Blueprint bp = scenario::DefaultBlueprint();
  const scenario::ScenarioReport first = scenario::RunScenario(spec, bp);
  const scenario::ScenarioReport second = scenario::RunScenario(spec, bp);
  EXPECT_EQ(LedgerViolation(first), "");
  EXPECT_TRUE(SameMetrics(first, second));

  scenario::ScenarioReport lost = first;
  lost.fleet.served -= 1;
  EXPECT_NE(LedgerViolation(lost), "");
  EXPECT_FALSE(SameMetrics(first, lost));

  scenario::ScenarioReport hedges = first;
  hedges.fleet.hedges_fired += 1;
  EXPECT_NE(LedgerViolation(hedges), "");
}

TEST(Samples, ExactUnderTheCapBoundedBeyondIt) {
  Samples exact(1000);
  for (int i = 1; i <= 999; ++i) exact.Add(i);
  EXPECT_TRUE(exact.exact());
  EXPECT_DOUBLE_EQ(exact.Quantile(0.5), 500.0);

  Samples bounded(64);
  for (int i = 0; i < 100000; ++i) bounded.Add(i);
  EXPECT_FALSE(bounded.exact());
  EXPECT_EQ(bounded.seen(), 100000u);
  EXPECT_DOUBLE_EQ(bounded.Max(), 99999.0);
  EXPECT_NEAR(bounded.Quantile(0.5), 50000.0, 100000.0 / 64);
}

TEST(Report, CatalogueNamesAreUniqueAndHaveUnits) {
  std::set<std::string> names;
  for (bool trace : {false, true}) {
    for (const auto& [name, unit] : Report::Catalogue(trace)) {
      EXPECT_TRUE(names.insert(name).second) << name;
      EXPECT_FALSE(unit.empty()) << name;
    }
  }
}

}  // namespace
}  // namespace ads::perfbench
