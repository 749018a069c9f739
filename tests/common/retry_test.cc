#include "common/retry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace ads::common {
namespace {

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailures) {
  CircuitBreaker cb({.failure_threshold = 3, .cooldown_seconds = 10.0});
  EXPECT_TRUE(cb.AllowRequest(0.0));
  cb.RecordFailure(0.0);
  cb.RecordFailure(1.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  cb.RecordFailure(2.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.trips(), 1);
  EXPECT_FALSE(cb.AllowRequest(5.0));  // still cooling down
}

TEST(CircuitBreakerTest, SuccessResetsFailureStreak) {
  CircuitBreaker cb({.failure_threshold = 3});
  cb.RecordFailure(0.0);
  cb.RecordFailure(1.0);
  cb.RecordSuccess(2.0);
  cb.RecordFailure(3.0);
  cb.RecordFailure(4.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, HalfOpenProbeClosesOnSuccess) {
  CircuitBreaker cb({.failure_threshold = 1, .cooldown_seconds = 10.0});
  cb.RecordFailure(0.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.AllowRequest(5.0));
  EXPECT_TRUE(cb.AllowRequest(10.0));  // cooldown elapsed: one probe
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(cb.AllowRequest(10.5));  // probe outstanding
  cb.RecordSuccess(11.0);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(cb.AllowRequest(11.5));
}

// Run under TSan (-DADS_ENABLE_TSAN=ON): many threads race AllowRequest
// after the cooldown; the half-open probe must be single-flight — exactly
// one caller is admitted until the probe's verdict lands — and the breaker
// must stay race-free while other threads record outcomes concurrently.
TEST(CircuitBreakerTest, HalfOpenProbeIsSingleFlightUnderConcurrency) {
  for (int round = 0; round < 20; ++round) {
    CircuitBreaker cb({.failure_threshold = 1, .cooldown_seconds = 10.0});
    cb.RecordFailure(0.0);
    ASSERT_EQ(cb.state(), CircuitBreaker::State::kOpen);
    const int kThreads = 8;
    std::atomic<int> admitted{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&cb, &admitted]() {
        // All callers arrive past the cooldown: one probe slot to win.
        for (int i = 0; i < 50; ++i) {
          if (cb.AllowRequest(10.0 + 0.001 * i)) admitted.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(admitted.load(), 1) << "probe admitted more than one caller";
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
    // The probe's success closes the breaker and traffic resumes.
    cb.RecordSuccess(11.0);
    EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
    EXPECT_TRUE(cb.AllowRequest(11.5));
  }
}

TEST(CircuitBreakerTest, ConcurrentOutcomeRecordingStaysConsistent) {
  CircuitBreaker cb({.failure_threshold = 3, .cooldown_seconds = 5.0});
  std::vector<std::thread> threads;
  threads.reserve(6);
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&cb, t]() {
      for (int i = 0; i < 200; ++i) {
        double now = 0.01 * i;
        if (cb.AllowRequest(now)) {
          if ((t + i) % 3 == 0) {
            cb.RecordFailure(now);
          } else {
            cb.RecordSuccess(now);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  // No torn state: the breaker landed in a legal configuration.
  EXPECT_GE(cb.trips(), 0);
  EXPECT_GE(cb.consecutive_failures(), 0);
}

TEST(CircuitBreakerTest, HalfOpenProbeReopensOnFailure) {
  CircuitBreaker cb({.failure_threshold = 1, .cooldown_seconds = 10.0});
  cb.RecordFailure(0.0);
  EXPECT_TRUE(cb.AllowRequest(10.0));
  cb.RecordFailure(10.5);
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.trips(), 2);
  EXPECT_FALSE(cb.AllowRequest(15.0));
  EXPECT_TRUE(cb.AllowRequest(20.5));  // new cooldown from the re-open
}

}  // namespace
}  // namespace ads::common
