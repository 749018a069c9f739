#ifndef ADS_AUTONOMY_RAI_H_
#define ADS_AUTONOMY_RAI_H_

#include <cstddef>

namespace ads::autonomy {

/// Guardrail protecting customers from expensive autonomous decisions:
/// every decision must clear an absolute cost cap and a benefit-per-cost
/// floor before it is applied.
class CostGuardrail {
 public:
  CostGuardrail(double max_cost, double min_benefit_per_cost = 0.0)
      : max_cost_(max_cost), min_benefit_per_cost_(min_benefit_per_cost) {}

  /// Returns true if the decision may proceed.
  bool Approve(double predicted_cost, double predicted_benefit);

  size_t approved() const { return approved_; }
  size_t rejected() const { return rejected_; }

 private:
  double max_cost_;
  double min_benefit_per_cost_;
  size_t approved_ = 0;
  size_t rejected_ = 0;
};

}  // namespace ads::autonomy

#endif  // ADS_AUTONOMY_RAI_H_
