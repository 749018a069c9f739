#include "autonomy/loop.h"

#include <chrono>
#include <cmath>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace ads::autonomy {

namespace {

/// FNV-1a over the slice seed then the tenant bytes: a cheap, stable,
/// platform-independent hash, so the canary slice is identical across
/// runs, thread counts, and machines.
uint64_t SliceHash(uint64_t seed, const std::string& tenant) {
  uint64_t h = 14695981039346656037ull;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (seed >> shift) & 0xffull;
    h *= 1099511628211ull;
  }
  for (char c : tenant) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

AutonomyLoop::AutonomyLoop(ml::ModelRegistry* registry, std::string model_name,
                           Trainer trainer, AutonomyLoopOptions options,
                           common::ThreadPool* pool,
                           common::FaultInjector* injector)
    : registry_(registry),
      model_(std::move(model_name)),
      trainer_(std::move(trainer)),
      options_(options),
      pool_(pool),
      injector_(injector),
      detector_(options.detector) {
  ADS_CHECK(registry != nullptr) << "autonomy loop needs a registry";
  ADS_CHECK(trainer_ != nullptr) << "autonomy loop needs a trainer";
  ADS_CHECK(options_.retrain_buffer_capacity >= options_.min_retrain_samples)
      << "retrain buffer smaller than the retrain minimum";
}

void AutonomyLoop::SetTracer(telemetry::Tracer* tracer) {
  std::lock_guard<std::mutex> lock(mu_);
  tracer_ = tracer;
}

bool AutonomyLoop::InSliceLocked(const std::string& tenant) const {
  return static_cast<double>(SliceHash(options_.slice_seed, tenant) % 10000) <
         options_.canary_tenant_fraction * 10000.0;
}

bool AutonomyLoop::InCanarySlice(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  return InSliceLocked(tenant);
}

uint32_t AutonomyLoop::Route(const std::string& model,
                             const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != LoopState::kCanary || model != model_) return 0;
  return InSliceLocked(tenant) ? candidate_version_ : 0;
}

LoopState AutonomyLoop::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint32_t AutonomyLoop::candidate_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return candidate_version_;
}

LoopStats AutonomyLoop::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

telemetry::SpanId AutonomyLoop::Child(const std::string& kind,
                                      const std::string& name, double now) {
  if (tracer_ == nullptr) return telemetry::kNoSpan;
  return tracer_->StartSpan(kind, name, episode_span_, now);
}

LoopState AutonomyLoop::OnSample(const LoopSample& sample, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.samples;
  const double error = std::fabs(sample.prediction - sample.truth);
  buffer_.emplace_back(sample.features, sample.truth);
  if (buffer_.size() > options_.retrain_buffer_capacity) buffer_.pop_front();

  switch (state_) {
    case LoopState::kSteady:
      if (detector_.Observe(error) && now >= cooldown_until_ &&
          buffer_.size() >= options_.min_retrain_samples) {
        BeginEpisode(now);
        StartRetrain(now);
      }
      break;
    case LoopState::kRetraining:
      PollRetrain(now);
      break;
    case LoopState::kShadow: {
      // Duplicate scoring: the candidate sees live features and truths
      // but its predictions never reach a user.
      shadow_live_sum_ += error;
      shadow_candidate_sum_ +=
          std::fabs(candidate_model_->Predict(sample.features) - sample.truth);
      ++shadow_n_;
      if (shadow_n_ >= options_.shadow_min_samples) {
        const double live = shadow_live_sum_ / static_cast<double>(shadow_n_);
        const double cand =
            shadow_candidate_sum_ / static_cast<double>(shadow_n_);
        if (tracer_ != nullptr) {
          tracer_->Annotate(
              stage_span_, "verdict",
              cand <= live * options_.shadow_max_error_ratio ? "pass" : "fail");
        }
        if (cand <= live * options_.shadow_max_error_ratio) {
          if (tracer_ != nullptr) tracer_->EndSpan(stage_span_, now);
          StartCanary(now);
        } else {
          AbortEpisode("shadow", "shadow-regression", now);
        }
      }
      break;
    }
    case LoopState::kCanary: {
      ADS_CHECK(evaluator_ != nullptr) << "canary without an evaluator";
      switch (evaluator_->RecordError(sample.served_version, error)) {
        case FlightEvaluator::Decision::kPending:
          break;
        case FlightEvaluator::Decision::kPromoted:
          Promote(now);
          break;
        case FlightEvaluator::Decision::kAborted:
          AbortEpisode("canary", "accuracy-regression", now);
          break;
      }
      break;
    }
    case LoopState::kProbation:
      if (detector_.Observe(error)) {
        RollbackFromProbation(now);
      } else if (now >= probation_until_) {
        EndEpisode("promoted", now);
        state_ = LoopState::kSteady;
      }
      break;
  }
  return state_;
}

void AutonomyLoop::ReportHealth(const HealthSnapshot& health, double now) {
  std::lock_guard<std::mutex> lock(mu_);
  if (state_ != LoopState::kShadow && state_ != LoopState::kCanary) return;
  const char* reason = nullptr;
  if (health.breaker_open) {
    reason = "breaker-open";
  } else if (health.p99_latency_seconds > options_.p99_slo_seconds) {
    reason = "p99-slo";
  } else if (health.availability < options_.min_availability) {
    reason = "availability";
  }
  if (reason == nullptr) return;
  AbortEpisode(state_ == LoopState::kShadow ? "shadow" : "canary", reason,
               now);
}

void AutonomyLoop::BeginEpisode(double now) {
  ++stats_.episodes;
  ++episode_seq_;
  if (tracer_ != nullptr) {
    episode_span_ = tracer_->StartSpan(
        "episode", "episode-" + std::to_string(episode_seq_),
        telemetry::kNoSpan, now);
    tracer_->Annotate(episode_span_, "model", model_);
    telemetry::SpanId drift = Child("drift", "alarm", now);
    tracer_->Annotate(drift, "trigger", "drift-alarm");
    tracer_->EndSpan(drift, now);
  }
}

void AutonomyLoop::StartRetrain(double now) {
  state_ = LoopState::kRetraining;
  stage_span_ = Child("retrain", model_, now);
  if (tracer_ != nullptr) {
    tracer_->Annotate(stage_span_, "samples",
                      std::to_string(buffer_.size()));
  }
  // One injector draw per retraining run: a fired "autonomy.retrain" site
  // models the training job dying (trainer crash, machine death). The
  // draw happens at trigger time so virtual-time runs stay deterministic;
  // the loss only surfaces when the run would have completed.
  retrain_doomed_ =
      injector_ != nullptr && injector_->ShouldFail("autonomy.retrain");
  retrain_ready_at_ = now + options_.retrain_duration_seconds;
  ml::Dataset data;
  for (const auto& [features, truth] : buffer_) data.Add(features, truth);
  if (pool_ != nullptr) {
    training_ = pool_->Submit(
        [trainer = trainer_, data = std::move(data)]() mutable {
          return trainer(data);
        });
    pending_valid_ = false;
  } else {
    // Synchronous (virtual-time) mode: train now, surface the result at
    // retrain_ready_at_ so training occupies simulated time.
    pending_blob_ = retrain_doomed_
                        ? common::Result<std::string>(
                              common::Status::Internal("retraining run lost"))
                        : trainer_(data);
    pending_valid_ = true;
  }
}

void AutonomyLoop::PollRetrain(double now) {
  if (now < retrain_ready_at_) return;
  if (pool_ != nullptr) {
    if (!training_.valid() ||
        training_.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      return;
    }
    common::Result<std::string> blob = training_.get();
    if (retrain_doomed_) {
      blob = common::Result<std::string>(
          common::Status::Internal("retraining run lost"));
    }
    FinishRetrain(std::move(blob), now);
    return;
  }
  ADS_CHECK(pending_valid_) << "sync retrain finished without a result";
  pending_valid_ = false;
  FinishRetrain(std::move(pending_blob_), now);
}

void AutonomyLoop::FinishRetrain(common::Result<std::string> blob,
                                 double now) {
  if (!blob.ok()) {
    ++stats_.retrain_failures;
    if (tracer_ != nullptr) {
      tracer_->Annotate(stage_span_, "error", blob.status().message());
    }
    // The drift alarm stays latched (no detector reset): once the
    // cooldown passes, a fresh episode retries the retrain.
    AbortEpisode("retrain", "retrain-failed", now);
    return;
  }
  auto model = ml::DeserializeRegressor(*blob);
  if (!model.ok()) {
    ++stats_.retrain_failures;
    if (tracer_ != nullptr) {
      tracer_->Annotate(stage_span_, "error", "bad candidate blob");
    }
    AbortEpisode("retrain", "retrain-failed", now);
    return;
  }
  candidate_version_ = registry_->Register(model_, std::move(*blob));
  candidate_model_ = std::move(*model);
  if (tracer_ != nullptr) {
    tracer_->Annotate(stage_span_, "candidate",
                      "v" + std::to_string(candidate_version_));
    tracer_->EndSpan(stage_span_, now);
  }
  shadow_live_sum_ = shadow_candidate_sum_ = 0.0;
  shadow_n_ = 0;
  state_ = LoopState::kShadow;
  stage_span_ = Child("shadow", model_, now);
  if (tracer_ != nullptr) {
    tracer_->Annotate(stage_span_, "candidate",
                      "v" + std::to_string(candidate_version_));
  }
}

void AutonomyLoop::StartCanary(double now) {
  evaluator_ =
      std::make_unique<FlightEvaluator>(registry_, model_, options_.flight);
  common::Status started = evaluator_->Start(candidate_version_);
  if (!started.ok()) {
    AbortEpisode("canary", "flight-rejected", now);
    return;
  }
  state_ = LoopState::kCanary;
  stage_span_ = Child("canary", model_, now);
  if (tracer_ != nullptr) {
    tracer_->Annotate(stage_span_, "candidate",
                      "v" + std::to_string(candidate_version_));
  }
}

void AutonomyLoop::Promote(double now) {
  ++stats_.promotes;
  if (tracer_ != nullptr) {
    tracer_->Annotate(stage_span_, "decision", "promote");
    tracer_->EndSpan(stage_span_, now);
    telemetry::SpanId promote = Child("promote", model_, now);
    tracer_->Annotate(promote, "version",
                      "v" + std::to_string(candidate_version_));
    tracer_->EndSpan(promote, now);
  }
  stage_span_ = telemetry::kNoSpan;
  evaluator_.reset();
  // Fresh baseline for the promoted model; an alarm before
  // probation_until_ reverts instead of retraining.
  detector_.Reset();
  probation_until_ = now + options_.probation_seconds;
  state_ = LoopState::kProbation;
}

void AutonomyLoop::RollbackFromProbation(double now) {
  ++stats_.rollbacks;
  const uint32_t from = registry_->DeployedVersion(model_);
  common::Status status = registry_->Rollback(model_);
  const uint32_t to = registry_->DeployedVersion(model_);
  if (tracer_ != nullptr) {
    telemetry::SpanId rollback = Child("rollback", model_, now);
    tracer_->Annotate(rollback, "reason", "probation-drift");
    tracer_->Annotate(rollback, "from", "v" + std::to_string(from));
    tracer_->Annotate(rollback, "to",
                      status.ok() ? "v" + std::to_string(to) : "none");
    tracer_->EndSpan(rollback, now);
  }
  detector_.Reset();
  candidate_version_ = 0;
  candidate_model_.reset();
  cooldown_until_ = now + options_.cooldown_seconds;
  EndEpisode("rolled-back", now);
  state_ = LoopState::kSteady;
}

void AutonomyLoop::AbortEpisode(const std::string& stage,
                                const std::string& reason, double now) {
  ++stats_.aborts;
  if (evaluator_ != nullptr) {
    evaluator_->Abort();  // ends the registry flight (no-op if decided)
    evaluator_.reset();
  }
  if (tracer_ != nullptr) {
    if (stage_span_ != telemetry::kNoSpan) {
      tracer_->Annotate(stage_span_, "decision", "abort");
      tracer_->EndSpan(stage_span_, now);
    }
    telemetry::SpanId abort_span = Child("abort", model_, now);
    tracer_->Annotate(abort_span, "stage", stage);
    tracer_->Annotate(abort_span, "reason", reason);
    tracer_->EndSpan(abort_span, now);
  }
  stage_span_ = telemetry::kNoSpan;
  candidate_version_ = 0;
  candidate_model_.reset();
  cooldown_until_ = now + options_.cooldown_seconds;
  EndEpisode("abort:" + reason, now);
  state_ = LoopState::kSteady;
}

void AutonomyLoop::EndEpisode(const std::string& outcome, double now) {
  candidate_version_ = 0;
  candidate_model_.reset();
  if (tracer_ != nullptr && episode_span_ != telemetry::kNoSpan) {
    tracer_->Annotate(episode_span_, "outcome", outcome);
    tracer_->EndSpan(episode_span_, now);
  }
  episode_span_ = telemetry::kNoSpan;
}

}  // namespace ads::autonomy
