#include "checks.h"

#include <cstring>

#include "common/rng.h"
#include "engine/optimizer.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"

namespace ads::perfbench {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

common::Result<QueryOracle> QueryOracle::Build(
    const workload::TpchGenerator& generator) {
  QueryOracle oracle;
  engine::Optimizer optimizer(&generator.catalog());
  engine::ReferenceExecutor reference(&generator.store());
  for (const std::string& name : generator.QueryNames()) {
    auto logical = generator.MakeQuery(name);
    if (!logical.ok()) return logical.status();
    auto plan =
        optimizer.Optimize(*logical.value(), engine::RuleConfig::Default());
    if (plan == nullptr) {
      return common::Status::Internal("optimizer returned no plan for " +
                                      name);
    }
    auto answer = reference.Execute(*plan);
    if (!answer.ok()) return answer.status();
    oracle.names_.push_back(name);
    oracle.answers_.push_back(std::move(answer).value());
  }
  return oracle;
}

bool QueryOracle::Matches(size_t i, const engine::ColumnTable& answer) const {
  return i < answers_.size() && answer.BitwiseEquals(answers_[i]);
}

PredictionOracle::PredictionOracle(const ml::Regressor& model, size_t rows,
                                   size_t dims, uint64_t seed) {
  common::Rng rng(seed);
  rows_.resize(rows, std::vector<double>(dims));
  expected_.reserve(rows);
  for (std::vector<double>& row : rows_) {
    for (double& v : row) v = rng.Uniform(-4.0, 4.0);
    expected_.push_back(model.Predict(row));
  }
}

bool PredictionOracle::Matches(size_t i, double value) const {
  return i < expected_.size() && SameBits(value, expected_[i]);
}

std::string LedgerViolation(const scenario::ScenarioReport& report) {
  const fleet::ShardCounters& c = report.fleet;
  if (c.accepted != c.served + c.Shed()) {
    return report.scenario + ": accepted " + std::to_string(c.accepted) +
           " != served " + std::to_string(c.served) + " + shed " +
           std::to_string(c.Shed());
  }
  if (c.hedges_fired != c.hedge_wins + c.primary_wins + c.hedges_failed) {
    return report.scenario + ": hedges_fired " +
           std::to_string(c.hedges_fired) + " != hedge_wins + primary_wins " +
           "+ hedges_failed";
  }
  return "";
}

bool SameMetrics(const scenario::ScenarioReport& a,
                 const scenario::ScenarioReport& b) {
  const auto ma = a.Metrics();
  const auto mb = b.Metrics();
  if (ma.size() != mb.size()) return false;
  for (size_t i = 0; i < ma.size(); ++i) {
    if (ma[i].first != mb[i].first || !SameBits(ma[i].second, mb[i].second)) {
      return false;
    }
  }
  return true;
}

}  // namespace ads::perfbench
