#include <gtest/gtest.h>

#include "autonomy/feedback.h"
#include "autonomy/monitor.h"
#include "autonomy/rai.h"
#include "common/rng.h"
#include "ml/linear.h"

namespace ads::autonomy {
namespace {

ml::DriftDetectorOptions FastDetector() {
  return {.baseline_window = 10, .recent_window = 5,
          .degradation_factor = 2.0, .min_absolute_error = 1e-3};
}

TEST(MonitorTest, TracksModelsIndependently) {
  ModelMonitor monitor(FastDetector());
  for (int i = 0; i < 10; ++i) {
    monitor.Observe("good", 10.0, 10.0 + 0.1);
    monitor.Observe("bad", 10.0, 10.0 + 0.1);
  }
  for (int i = 0; i < 5; ++i) {
    monitor.Observe("good", 10.0, 10.1);
    monitor.Observe("bad", 10.0, 50.0);  // bad drifts
  }
  EXPECT_FALSE(monitor.Alarmed("good"));
  EXPECT_TRUE(monitor.Alarmed("bad"));
  EXPECT_EQ(monitor.models_tracked(), 2u);
  EXPECT_EQ(monitor.observations("good"), 15u);
  monitor.Acknowledge("bad");
  EXPECT_FALSE(monitor.Alarmed("bad"));
}

TEST(MonitorTest, UnknownModelNotAlarmed) {
  ModelMonitor monitor;
  EXPECT_FALSE(monitor.Alarmed("nobody"));
  EXPECT_EQ(monitor.observations("nobody"), 0u);
}

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

TEST(FeedbackTest, DriftTriggersRollbackToPreviousVersion) {
  ml::ModelRegistry registry;
  registry.Register("card", BlobWithSlope(1.0));
  registry.Register("card", BlobWithSlope(2.0));
  ASSERT_TRUE(registry.Deploy("card", 1).ok());
  ASSERT_TRUE(registry.Deploy("card", 2).ok());

  FeedbackLoop loop(&registry, {.detector = FastDetector()});
  // Healthy period.
  FeedbackAction last = FeedbackAction::kNone;
  for (int i = 0; i < 10; ++i) {
    last = loop.ReportObservation("card", 10.0, 10.05);
  }
  EXPECT_EQ(last, FeedbackAction::kNone);
  // v2 starts regressing badly.
  for (int i = 0; i < 5; ++i) {
    last = loop.ReportObservation("card", 10.0, 40.0);
  }
  EXPECT_EQ(last, FeedbackAction::kRolledBack);
  EXPECT_EQ(registry.DeployedVersion("card"), 1u);
  EXPECT_EQ(loop.rollbacks(), 1u);
  EXPECT_TRUE(loop.RetrainPending("card"));
}

TEST(FeedbackTest, NoHistoryMeansRetrainRequest) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(1.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  FeedbackLoop loop(&registry, {.detector = FastDetector()});
  for (int i = 0; i < 10; ++i) loop.ReportObservation("m", 1.0, 1.0);
  FeedbackAction last = FeedbackAction::kNone;
  for (int i = 0; i < 5; ++i) {
    last = loop.ReportObservation("m", 1.0, 100.0);
  }
  EXPECT_EQ(last, FeedbackAction::kRetrainRequested);
  EXPECT_EQ(loop.rollbacks(), 0u);
  EXPECT_EQ(registry.DeployedVersion("m"), 1u);
}

TEST(FeedbackTest, RetrainCompletionReArmsMonitoring) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(1.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  FeedbackLoop loop(&registry, {.detector = FastDetector()});
  for (int i = 0; i < 10; ++i) loop.ReportObservation("m", 1.0, 1.0);
  for (int i = 0; i < 5; ++i) loop.ReportObservation("m", 1.0, 100.0);
  ASSERT_TRUE(loop.RetrainPending("m"));
  // Operator retrains and deploys v2.
  registry.Register("m", BlobWithSlope(1.1));
  ASSERT_TRUE(registry.Deploy("m", 2).ok());
  loop.NotifyRetrained("m");
  EXPECT_FALSE(loop.RetrainPending("m"));
  // Healthy again; no further actions fire.
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(loop.ReportObservation("m", 1.0, 1.0), FeedbackAction::kNone);
  }
}

TEST(FeedbackTest, AutoRollbackCanBeDisabled) {
  ml::ModelRegistry registry;
  registry.Register("m", BlobWithSlope(1.0));
  registry.Register("m", BlobWithSlope(2.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  ASSERT_TRUE(registry.Deploy("m", 2).ok());
  FeedbackLoop loop(&registry,
                    {.detector = FastDetector(), .auto_rollback = false});
  for (int i = 0; i < 10; ++i) loop.ReportObservation("m", 1.0, 1.0);
  FeedbackAction last = FeedbackAction::kNone;
  for (int i = 0; i < 5; ++i) last = loop.ReportObservation("m", 1.0, 50.0);
  EXPECT_EQ(last, FeedbackAction::kRetrainRequested);
  EXPECT_EQ(registry.DeployedVersion("m"), 2u);  // untouched
}

TEST(RaiTest, CostGuardrailRejectsExpensiveDecisions) {
  CostGuardrail guard(100.0, /*min_benefit_per_cost=*/1.0);
  EXPECT_TRUE(guard.Approve(50.0, 80.0));
  EXPECT_FALSE(guard.Approve(200.0, 1000.0));  // over cap
  EXPECT_FALSE(guard.Approve(50.0, 20.0));     // bad benefit/cost
  EXPECT_EQ(guard.approved(), 1u);
  EXPECT_EQ(guard.rejected(), 2u);
}

}  // namespace
}  // namespace ads::autonomy
