#include "ml/linear.h"

#include <algorithm>
#include <sstream>

#include "common/aligned.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/simd.h"
#include "ml/gemm.h"

namespace ads::ml {

common::Status LinearRegressor::Fit(const Dataset& data) {
  if (data.empty()) {
    return common::Status::InvalidArgument("linear fit on empty data");
  }
  size_t n = data.size();
  size_t d = data.dimensions();
  common::Matrix x(n, d + 1);
  for (size_t i = 0; i < n; ++i) {
    x.At(i, 0) = 1.0;
    for (size_t j = 0; j < d; ++j) x.At(i, j + 1) = data.row(i)[j];
  }
  // Note: ridge in SolveLeastSquares also penalizes the intercept column;
  // compensate by solving with per-column penalty via augmented rows is
  // overkill here — the penalty on the intercept is negligible for the
  // telemetry scales involved, and zero-ridge fits are exact.
  auto beta = common::SolveLeastSquares(x, data.labels(), ridge_);
  if (!beta.ok()) return beta.status();
  intercept_ = (*beta)[0];
  weights_.assign(beta->begin() + 1, beta->end());
  return common::Status::Ok();
}

double LinearRegressor::Predict(const std::vector<double>& features) const {
  ADS_CHECK(fitted()) << "predict on unfitted linear model";
  ADS_CHECK(features.size() == weights_.size())
      << "linear predict arity mismatch";
  double y = intercept_;
  for (size_t j = 0; j < weights_.size(); ++j) y += weights_[j] * features[j];
  return y;
}

void LinearRegressor::PredictBatchRange(const common::Matrix& rows,
                                        size_t begin, size_t end,
                                        double* out) const {
  ADS_CHECK(fitted()) << "predict on unfitted linear model";
  ADS_CHECK(rows.cols() == weights_.size())
      << "linear predict arity mismatch";
  if (begin >= end) return;
  // Folded dot products through the shared dense microkernel: rows are
  // packed into transposed tiles so a SIMD lane sweep reads contiguous
  // memory, then the single-output GEMM accumulates each row's dot in
  // feature order — bit-identical to the scalar fold above for every
  // dispatch tier (lanes are whole rows). Tile scratch is thread-local,
  // so steady-state calls allocate nothing and pool workers don't share.
  const double* w = weights_.data();
  const size_t d = weights_.size();
  const common::SimdLevel level = common::ActiveSimdLevel();
  if (level == common::SimdLevel::kScalar) {
    // No lanes to feed: packing a transposed tile would cost as much as
    // the fold itself. Keep the direct row-major fold (same reduction
    // order, so still bit-identical to the tiers below).
    for (size_t r = begin; r < end; ++r) {
      const double* x = rows.RowPtr(r);
      double y = intercept_;
      for (size_t j = 0; j < d; ++j) y += w[j] * x[j];
      out[r] = y;
    }
    return;
  }
  constexpr size_t kTile = 256;
  thread_local common::AlignedBuffer<double> tile;
  tile.EnsureCapacity(kTile * std::max<size_t>(d, 1));
  for (size_t block = begin; block < end; block += kTile) {
    const size_t n = std::min(kTile, end - block);
    PackTileT(level, rows, block, n, tile.data());
    DenseLayerForwardT(level, tile.data(), n, d, w, &intercept_, 1,
                       out + block);
  }
}

double LinearRegressor::InferenceCost() const {
  return static_cast<double>(2 * weights_.size() + 1);
}

void LinearRegressor::SetCoefficients(double intercept,
                                      std::vector<double> weights) {
  intercept_ = intercept;
  weights_ = std::move(weights);
}

std::string LinearRegressor::Serialize() const {
  std::ostringstream os;
  os.precision(17);
  os << "linear\n" << intercept_ << "\n" << weights_.size();
  for (double w : weights_) os << " " << w;
  os << "\n";
  return os.str();
}

common::Result<LinearRegressor> LinearRegressor::Deserialize(
    const std::string& body) {
  std::istringstream is(body);
  double intercept = 0.0;
  size_t n = 0;
  if (!(is >> intercept >> n)) {
    return common::Status::InvalidArgument("bad linear model blob");
  }
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) {
    if (!(is >> w[i])) {
      return common::Status::InvalidArgument("truncated linear model blob");
    }
  }
  LinearRegressor model;
  model.SetCoefficients(intercept, std::move(w));
  return model;
}

}  // namespace ads::ml
