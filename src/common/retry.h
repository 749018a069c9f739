#ifndef ADS_COMMON_RETRY_H_
#define ADS_COMMON_RETRY_H_

#include <mutex>

namespace ads::common {

/// Per-dependency circuit breaker (closed → open → half-open), the guard
/// the serving fallback chain uses to stop hammering a failing model
/// version. Time is caller-provided simulated seconds, so behaviour is
/// deterministic.
///
/// Thread-safe: transitions are serialized by an internal mutex, so the
/// serving runtime's concurrent batch workers can share one breaker. In
/// particular the half-open probe is single-flight — of many concurrent
/// AllowRequest calls after the cooldown, exactly one is admitted until
/// that probe's verdict is recorded.
struct CircuitBreakerOptions {
  /// Consecutive failures that trip the breaker open.
  int failure_threshold = 3;
  /// Seconds the breaker stays open before allowing one probe request
  /// (half-open). A probe success closes it; a probe failure re-opens it.
  double cooldown_seconds = 60.0;
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options =
                              CircuitBreakerOptions())
      : options_(options) {}

  /// True if a request may proceed at time `now`. An open breaker past its
  /// cooldown transitions to half-open and admits exactly one probe.
  bool AllowRequest(double now);
  void RecordSuccess(double now);
  void RecordFailure(double now);

  State state() const {
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
  }
  int consecutive_failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return consecutive_failures_;
  }
  /// Times the breaker tripped from closed/half-open to open.
  int trips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trips_;
  }

 private:
  mutable std::mutex mu_;
  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int trips_ = 0;
  double opened_at_ = 0.0;
  bool probe_in_flight_ = false;
};

}  // namespace ads::common

#endif  // ADS_COMMON_RETRY_H_
