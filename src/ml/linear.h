#ifndef ADS_ML_LINEAR_H_
#define ADS_ML_LINEAR_H_

#include <string>
#include <vector>

#include "ml/model.h"

namespace ads::ml {

/// Ordinary/ridge least-squares linear regression. The workhorse model of
/// the paper's Insight 1 ("simple ML models tend to overrule complex deep
/// learning models"): interpretable coefficients, closed-form training.
class LinearRegressor : public Regressor {
 public:
  /// ridge: L2 penalty applied to the non-intercept weights.
  explicit LinearRegressor(double ridge = 0.0) : ridge_(ridge) {}

  common::Status Fit(const Dataset& data) override;
  double Predict(const std::vector<double>& features) const override;
  /// Batched dot products over contiguous matrix rows; bit-identical to
  /// Predict per row (same left-to-right accumulation).
  void PredictBatchRange(const common::Matrix& rows, size_t begin, size_t end,
                         double* out) const override;
  std::string TypeName() const override { return "linear"; }
  std::string Serialize() const override;
  double InferenceCost() const override;

  /// Reconstructs from Serialize() output (body after the type tag).
  static common::Result<LinearRegressor> Deserialize(const std::string& body);

  bool fitted() const { return !weights_.empty(); }
  double intercept() const { return intercept_; }
  const std::vector<double>& weights() const { return weights_; }

  /// Directly installs coefficients (used by deserialization and tests).
  void SetCoefficients(double intercept, std::vector<double> weights);

 private:
  double ridge_;
  double intercept_ = 0.0;
  std::vector<double> weights_;
};

}  // namespace ads::ml

#endif  // ADS_ML_LINEAR_H_
