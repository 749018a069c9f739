#include "ml/model.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/tree.h"

namespace ads::ml {

void Regressor::PredictBatch(const common::Matrix& rows,
                             std::vector<double>* out) const {
  ADS_CHECK(out != nullptr) << "PredictBatch needs an output vector";
  out->resize(rows.rows());
  if (rows.rows() == 0) return;
  PredictBatchRange(rows, 0, rows.rows(), out->data());
}

void Regressor::PredictBatchRange(const common::Matrix& rows, size_t begin,
                                  size_t end, double* out) const {
  // Fallback for families without a batched kernel: row-at-a-time through
  // the virtual Predict, which is the equivalence reference by definition.
  std::vector<double> row(rows.cols());
  for (size_t r = begin; r < end; ++r) {
    const double* p = rows.RowPtr(r);
    row.assign(p, p + rows.cols());
    out[r] = Predict(row);
  }
}

void PredictBatchParallel(const Regressor& model, const common::Matrix& rows,
                          common::ThreadPool& pool, std::vector<double>* out,
                          size_t grain) {
  ADS_CHECK(out != nullptr) << "PredictBatchParallel needs an output vector";
  ADS_CHECK(grain > 0) << "grain must be positive";
  out->resize(rows.rows());
  if (rows.rows() == 0) return;
  double* data = out->data();
  pool.ParallelFor(0, rows.rows(), grain,
                   [&model, &rows, data](size_t begin, size_t end) {
                     model.PredictBatchRange(rows, begin, end, data);
                   });
}

common::Result<std::unique_ptr<Regressor>> DeserializeRegressor(
    const std::string& blob) {
  size_t newline = blob.find('\n');
  if (newline == std::string::npos) {
    return common::Status::InvalidArgument("model blob missing type tag");
  }
  std::string tag = blob.substr(0, newline);
  std::string body = blob.substr(newline + 1);
  if (tag == "linear") {
    auto m = LinearRegressor::Deserialize(body);
    if (!m.ok()) return m.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<LinearRegressor>(std::move(m).value()));
  }
  if (tag == "tree") {
    auto m = RegressionTree::Deserialize(body);
    if (!m.ok()) return m.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<RegressionTree>(std::move(m).value()));
  }
  if (tag == "forest") {
    auto m = RandomForestRegressor::Deserialize(body);
    if (!m.ok()) return m.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<RandomForestRegressor>(std::move(m).value()));
  }
  if (tag == "gbt") {
    auto m = GradientBoostedTrees::Deserialize(body);
    if (!m.ok()) return m.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<GradientBoostedTrees>(std::move(m).value()));
  }
  if (tag == "mlp") {
    auto m = MlpRegressor::Deserialize(body);
    if (!m.ok()) return m.status();
    return std::unique_ptr<Regressor>(
        std::make_unique<MlpRegressor>(std::move(m).value()));
  }
  return common::Status::Unimplemented("unsupported model family: " + tag);
}

}  // namespace ads::ml
