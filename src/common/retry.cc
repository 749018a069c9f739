#include "common/retry.h"

namespace ads::common {

bool CircuitBreaker::AllowRequest(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now - opened_at_ >= options_.cooldown_seconds) {
        state_ = State::kHalfOpen;
        probe_in_flight_ = true;
        return true;
      }
      return false;
    case State::kHalfOpen:
      // One probe at a time; further requests wait for its verdict.
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return false;
}

void CircuitBreaker::RecordSuccess(double) {
  std::lock_guard<std::mutex> lock(mu_);
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  state_ = State::kClosed;
}

void CircuitBreaker::RecordFailure(double now) {
  std::lock_guard<std::mutex> lock(mu_);
  ++consecutive_failures_;
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen ||
      consecutive_failures_ >= options_.failure_threshold) {
    if (state_ != State::kOpen) ++trips_;
    state_ = State::kOpen;
    opened_at_ = now;
    consecutive_failures_ = 0;
  }
}

}  // namespace ads::common
