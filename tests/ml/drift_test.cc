#include "ml/drift.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"

namespace ads::ml {
namespace {

TEST(DriftDetectorTest, NoAlarmOnStableErrors) {
  common::Rng rng(3);
  DriftDetector det;
  for (int i = 0; i < 500; ++i) {
    det.Observe(std::abs(rng.Normal(0, 1)));
  }
  EXPECT_FALSE(det.alarmed());
}

TEST(DriftDetectorTest, AlarmsOnErrorJump) {
  common::Rng rng(4);
  DriftDetector det;
  for (int i = 0; i < 100; ++i) det.Observe(std::abs(rng.Normal(0, 1)));
  EXPECT_FALSE(det.alarmed());
  bool alarmed = false;
  for (int i = 0; i < 50; ++i) {
    alarmed = det.Observe(std::abs(rng.Normal(0, 1)) + 10.0);
  }
  EXPECT_TRUE(alarmed);
}

TEST(DriftDetectorTest, ResetClearsAlarm) {
  DriftDetector det({.baseline_window = 5, .recent_window = 3});
  for (int i = 0; i < 5; ++i) det.Observe(1.0);
  for (int i = 0; i < 3; ++i) det.Observe(100.0);
  EXPECT_TRUE(det.alarmed());
  det.Reset();
  EXPECT_FALSE(det.alarmed());
  EXPECT_FALSE(det.baseline_ready());
}

TEST(DriftDetectorTest, NoAlarmBeforeRecentWindowFull) {
  DriftDetector det({.baseline_window = 5, .recent_window = 10});
  for (int i = 0; i < 5; ++i) det.Observe(1.0);
  for (int i = 0; i < 9; ++i) det.Observe(100.0);
  EXPECT_FALSE(det.alarmed());
  det.Observe(100.0);
  EXPECT_TRUE(det.alarmed());
}

TEST(DriftDetectorTest, MinAbsoluteErrorGuardsNoise) {
  // Baseline errors are zero; tiny recent errors must not alarm.
  DriftDetector det({.baseline_window = 5,
                     .recent_window = 3,
                     .min_absolute_error = 0.1});
  for (int i = 0; i < 5; ++i) det.Observe(0.0);
  for (int i = 0; i < 3; ++i) det.Observe(0.01);
  EXPECT_FALSE(det.alarmed());
}

TEST(DriftDetectorTest, ConstantStreamNeverAlarms) {
  DriftDetector det({.baseline_window = 10, .recent_window = 5});
  for (int i = 0; i < 1000; ++i) det.Observe(3.5);
  // Recent mean equals the baseline mean exactly; no degradation factor
  // can be exceeded.
  EXPECT_FALSE(det.alarmed());
  EXPECT_DOUBLE_EQ(det.baseline_mean(), det.recent_mean());
}

TEST(DriftDetectorTest, WarmupShorterThanWindowNeverAlarms) {
  // Fewer observations than the baseline window: the detector is still
  // baselining and must stay silent no matter how large the errors are.
  DriftDetector det({.baseline_window = 50, .recent_window = 5});
  for (int i = 0; i < 49; ++i) det.Observe(1e9);
  EXPECT_FALSE(det.alarmed());
  EXPECT_FALSE(det.baseline_ready());
  EXPECT_DOUBLE_EQ(det.recent_mean(), 0.0);  // nothing past the baseline yet
}

TEST(DriftDetectorTest, NonFiniteObservationsAreDropped) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DriftDetector det({.baseline_window = 5, .recent_window = 3});
  // Poisoned samples during warmup must not consume baseline slots or
  // contaminate the baseline mean.
  det.Observe(nan);
  det.Observe(inf);
  det.Observe(-inf);
  for (int i = 0; i < 5; ++i) det.Observe(1.0);
  EXPECT_TRUE(det.baseline_ready());
  EXPECT_DOUBLE_EQ(det.baseline_mean(), 1.0);
  // Poisoned samples after warmup must not wedge the alarm on (a single
  // NaN would otherwise make the recent mean NaN forever) nor consume
  // recent-window slots.
  EXPECT_FALSE(det.Observe(nan));
  EXPECT_FALSE(det.Observe(inf));
  EXPECT_FALSE(det.alarmed());
  // Real degradation after the noise still alarms on schedule.
  det.Observe(100.0);
  det.Observe(100.0);
  EXPECT_FALSE(det.alarmed());  // recent window (3) not yet full
  EXPECT_TRUE(det.Observe(100.0));
}

TEST(DriftDetectorTest, ResetAfterPromotionRebaselinesOnNewRegime) {
  // The autonomy loop resets the detector when a retrained model is
  // promoted: the old baseline described the old model's errors.
  DriftDetector det({.baseline_window = 5, .recent_window = 3});
  for (int i = 0; i < 5; ++i) det.Observe(1.0);
  for (int i = 0; i < 3; ++i) det.Observe(10.0);
  ASSERT_TRUE(det.alarmed());
  det.Reset();  // promotion: new model, new baseline
  // The new model's steady-state error is higher in absolute terms but
  // stable; it must not re-alarm against the stale baseline.
  for (int i = 0; i < 50; ++i) det.Observe(2.0);
  EXPECT_FALSE(det.alarmed());
  // A genuine regression of the promoted model alarms again.
  for (int i = 0; i < 3; ++i) det.Observe(50.0);
  EXPECT_TRUE(det.alarmed());
}

}  // namespace
}  // namespace ads::ml
