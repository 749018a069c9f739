#include "autonomy/flight.h"

#include "common/logging.h"

namespace ads::autonomy {

FlightEvaluator::FlightEvaluator(ml::ModelRegistry* registry,
                                 std::string model_name,
                                 FlightOptions options)
    : registry_(registry), model_(std::move(model_name)), options_(options) {
  ADS_CHECK(registry != nullptr) << "flight evaluator needs a registry";
}

common::Status FlightEvaluator::Start(uint32_t treatment_version) {
  control_version_ = registry_->DeployedVersion(model_);
  if (control_version_ == 0) {
    return common::Status::FailedPrecondition(
        "no deployed control model for " + model_);
  }
  if (treatment_version == control_version_) {
    return common::Status::InvalidArgument(
        "treatment equals the deployed control");
  }
  ADS_RETURN_IF_ERROR(registry_->StartFlight(model_, treatment_version));
  treatment_version_ = treatment_version;
  decision_ = Decision::kPending;
  control_sum_ = treatment_sum_ = 0.0;
  control_n_ = treatment_n_ = 0;
  return common::Status::Ok();
}

double FlightEvaluator::control_mean_error() const {
  return control_n_ == 0 ? 0.0
                         : control_sum_ / static_cast<double>(control_n_);
}

double FlightEvaluator::treatment_mean_error() const {
  return treatment_n_ == 0
             ? 0.0
             : treatment_sum_ / static_cast<double>(treatment_n_);
}

void FlightEvaluator::Abort() {
  if (decision_ != Decision::kPending) return;
  ADS_CHECK_OK(registry_->EndFlight(model_, /*promote=*/false));
  decision_ = Decision::kAborted;
}

FlightEvaluator::Decision FlightEvaluator::RecordError(uint32_t version,
                                                       double abs_error) {
  if (decision_ != Decision::kPending) return decision_;
  if (version == treatment_version_) {
    treatment_sum_ += abs_error;
    ++treatment_n_;
  } else if (version == control_version_) {
    control_sum_ += abs_error;
    ++control_n_;
  }
  if (control_n_ < options_.min_samples_per_arm ||
      treatment_n_ < options_.min_samples_per_arm) {
    return decision_;
  }
  double control = control_mean_error();
  double treatment = treatment_mean_error();
  if (treatment <= control * options_.promote_ratio) {
    ADS_CHECK_OK(registry_->EndFlight(model_, /*promote=*/true));
    decision_ = Decision::kPromoted;
  } else if (treatment >= control * options_.abort_ratio) {
    ADS_CHECK_OK(registry_->EndFlight(model_, /*promote=*/false));
    decision_ = Decision::kAborted;
  }
  return decision_;
}

}  // namespace ads::autonomy
