#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/table.h"
#include "ml/model.h"
#include "scenario/scenario.h"
#include "workload/tpch_gen.h"

// Correctness oracles every run checks its outputs against. A failed check
// counts the operation as failed and makes the run's verdict incorrect.

namespace ads::perfbench {

/// Bit-level equality of two doubles.
bool SameBits(double a, double b);

/// Reference answers for the TPC-H templates of one generated database:
/// each template's default-optimized plan run through the row-at-a-time
/// engine::ReferenceExecutor.
class QueryOracle {
 public:
  /// Errors if a template cannot be built, optimized or executed.
  static common::Result<QueryOracle> Build(
      const workload::TpchGenerator& generator);

  const std::vector<std::string>& names() const { return names_; }
  /// True when `answer` is bit-identical to template `i`'s reference.
  bool Matches(size_t i, const engine::ColumnTable& answer) const;

 private:
  std::vector<std::string> names_;
  std::vector<engine::ColumnTable> answers_;
};

/// A fixed set of seeded feature rows with the model's scalar Predict on
/// each: what every served prediction must equal bit for bit.
class PredictionOracle {
 public:
  PredictionOracle(const ml::Regressor& model, size_t rows, size_t dims,
                   uint64_t seed);

  size_t size() const { return expected_.size(); }
  const std::vector<double>& features(size_t i) const { return rows_[i]; }
  bool Matches(size_t i, double value) const;

 private:
  std::vector<std::vector<double>> rows_;
  std::vector<double> expected_;
};

/// Empty when the report keeps the fleet ledger invariants
/// (accepted == served + shed; every fired hedge resolved as a hedge win,
/// a primary win or a double failure), else what broke.
std::string LedgerViolation(const scenario::ScenarioReport& report);

/// True when two reports' Metrics() are byte-identical.
bool SameMetrics(const scenario::ScenarioReport& a,
                 const scenario::ScenarioReport& b);

}  // namespace ads::perfbench

#endif  // PERFBENCH_CHECKS_H_
