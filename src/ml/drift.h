#ifndef ADS_ML_DRIFT_H_
#define ADS_ML_DRIFT_H_

#include <cstddef>
#include <deque>

namespace ads::ml {

struct DriftDetectorOptions {
  size_t baseline_window = 50;
  size_t recent_window = 20;
  /// Alarm when recent mean error exceeds baseline mean by this factor.
  double degradation_factor = 2.0;
  /// Minimum absolute error before alarming (guards near-zero baselines).
  double min_absolute_error = 1e-6;
};

/// Online drift detector over a model's prediction errors: compares the
/// rolling recent-window mean against a frozen baseline window. This is the
/// monitoring half of the paper's Insight 3 feedback loop — spot changes in
/// real time, trigger fine-tuning or rollback.
class DriftDetector {
 public:
  using Options = DriftDetectorOptions;

  explicit DriftDetector(Options options = Options()) : options_(options) {}

  /// Feeds one absolute error observation; returns true if the detector is
  /// in the alarmed state after this observation. Non-finite observations
  /// (NaN, +/-inf — a poisoned prediction or a corrupt label) are dropped
  /// without consuming window slots: one bad sensor reading must not
  /// poison the baseline mean or permanently wedge the alarm.
  bool Observe(double abs_error);

  bool alarmed() const { return alarmed_; }
  /// Resets the alarm and re-baselines from scratch (after redeploy).
  void Reset();

  double baseline_mean() const;
  double recent_mean() const;
  bool baseline_ready() const {
    return baseline_.size() >= options_.baseline_window;
  }

 private:
  Options options_;
  std::deque<double> baseline_;
  std::deque<double> recent_;
  bool alarmed_ = false;
};

}  // namespace ads::ml

#endif  // ADS_ML_DRIFT_H_
