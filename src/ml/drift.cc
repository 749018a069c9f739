#include "ml/drift.h"

#include <algorithm>
#include <cmath>

namespace ads::ml {

bool DriftDetector::Observe(double abs_error) {
  if (!std::isfinite(abs_error)) return alarmed_;
  if (baseline_.size() < options_.baseline_window) {
    baseline_.push_back(abs_error);
    return alarmed_;
  }
  recent_.push_back(abs_error);
  if (recent_.size() > options_.recent_window) recent_.pop_front();
  if (recent_.size() == options_.recent_window) {
    double recent = recent_mean();
    double base = std::max(baseline_mean(), options_.min_absolute_error);
    if (recent > options_.degradation_factor * base &&
        recent > options_.min_absolute_error) {
      alarmed_ = true;
    }
  }
  return alarmed_;
}

void DriftDetector::Reset() {
  baseline_.clear();
  recent_.clear();
  alarmed_ = false;
}

double DriftDetector::baseline_mean() const {
  if (baseline_.empty()) return 0.0;
  double s = 0.0;
  for (double v : baseline_) s += v;
  return s / static_cast<double>(baseline_.size());
}

double DriftDetector::recent_mean() const {
  if (recent_.empty()) return 0.0;
  double s = 0.0;
  for (double v : recent_) s += v;
  return s / static_cast<double>(recent_.size());
}

}  // namespace ads::ml
