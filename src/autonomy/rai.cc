#include "autonomy/rai.h"

namespace ads::autonomy {

bool CostGuardrail::Approve(double predicted_cost, double predicted_benefit) {
  bool ok = predicted_cost <= max_cost_ &&
            predicted_benefit >= min_benefit_per_cost_ * predicted_cost;
  if (ok) {
    ++approved_;
  } else {
    ++rejected_;
  }
  return ok;
}

}  // namespace ads::autonomy
