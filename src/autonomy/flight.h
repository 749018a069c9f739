#ifndef ADS_AUTONOMY_FLIGHT_H_
#define ADS_AUTONOMY_FLIGHT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "ml/registry.h"

namespace ads::autonomy {

struct FlightOptions {
  /// Samples required on each arm before a decision is made.
  size_t min_samples_per_arm = 50;
  /// Promote when treatment mean error <= control mean error * this ratio.
  double promote_ratio = 0.97;
  /// Abort immediately when treatment mean error exceeds control * this
  /// ratio after min samples (fast regression exit).
  double abort_ratio = 1.15;
};

/// Controlled rollout of a new model version (Insight 3: "all ML solutions
/// undergo extensive testing before being deployed into production,
/// including backtesting, flighting or A/B testing"). Wraps the registry's
/// flight mechanism with error accounting and an automatic
/// promote/abort decision. Which requests each arm serves is decided
/// outside, by the serving tier's VersionRouter (AutonomyLoop's seeded
/// tenant slice).
class FlightEvaluator {
 public:
  enum class Decision { kPending, kPromoted, kAborted };

  FlightEvaluator(ml::ModelRegistry* registry, std::string model_name,
                  FlightOptions options = FlightOptions());

  /// Starts flighting `treatment_version` against the deployed control.
  common::Status Start(uint32_t treatment_version);

  /// Records the serving error one request observed under `version`.
  /// When both arms have enough samples, decides: promote, abort, or keep
  /// collecting. Promotion/abort ends the registry flight.
  Decision RecordError(uint32_t version, double abs_error);

  /// Force-aborts a pending flight regardless of sample counts — the exit
  /// an SLO gate takes when serving health (p99, availability, breaker)
  /// degrades mid-flight and waiting for accuracy evidence would keep a
  /// harmful candidate in rotation. Ends the registry flight without
  /// promotion; no-op once a decision has been reached.
  void Abort();

  Decision decision() const { return decision_; }
  double control_mean_error() const;
  double treatment_mean_error() const;
  size_t control_samples() const { return control_n_; }
  size_t treatment_samples() const { return treatment_n_; }

 private:
  ml::ModelRegistry* registry_;
  std::string model_;
  FlightOptions options_;
  uint32_t control_version_ = 0;
  uint32_t treatment_version_ = 0;
  Decision decision_ = Decision::kPending;
  double control_sum_ = 0.0;
  double treatment_sum_ = 0.0;
  size_t control_n_ = 0;
  size_t treatment_n_ = 0;
};

}  // namespace ads::autonomy

#endif  // ADS_AUTONOMY_FLIGHT_H_
