#include "autonomy/flight.h"

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "ml/linear.h"

namespace ads::autonomy {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

class FlightTest : public ::testing::Test {
 protected:
  FlightTest() {
    registry_.Register("m", BlobWithSlope(1.0));  // v1: control
    registry_.Register("m", BlobWithSlope(2.0));  // v2: treatment
    ADS_CHECK_OK(registry_.Deploy("m", 1));
  }

  /// Arm serving request `i` when traffic alternates between `control`
  /// and `treatment`, standing in for the serving tier's router.
  static uint32_t Arm(int i, uint32_t control = 1, uint32_t treatment = 2) {
    return i % 2 == 0 ? treatment : control;
  }

  ml::ModelRegistry registry_;
};

TEST_F(FlightTest, StartRequiresDeployedControlAndDistinctTreatment) {
  FlightEvaluator eval(&registry_, "m");
  EXPECT_FALSE(eval.Start(1).ok());  // equals control
  EXPECT_TRUE(eval.Start(2).ok());
  ml::ModelRegistry empty;
  empty.Register("x", BlobWithSlope(1.0));
  FlightEvaluator no_control(&empty, "x");
  EXPECT_FALSE(no_control.Start(1).ok());
}

TEST_F(FlightTest, BetterTreatmentGetsPromoted) {
  FlightEvaluator eval(&registry_, "m", {.min_samples_per_arm = 20});
  ASSERT_TRUE(eval.Start(2).ok());
  FlightEvaluator::Decision d = FlightEvaluator::Decision::kPending;
  for (int i = 0; i < 500 && d == FlightEvaluator::Decision::kPending; ++i) {
    uint32_t v = Arm(i);
    // Treatment halves the serving error.
    double err = v == 2 ? 0.5 : 1.0;
    d = eval.RecordError(v, err);
  }
  EXPECT_EQ(d, FlightEvaluator::Decision::kPromoted);
  EXPECT_EQ(registry_.DeployedVersion("m"), 2u);
  EXPECT_FALSE(registry_.FlightActive("m"));
}

TEST_F(FlightTest, WorseTreatmentGetsAborted) {
  FlightEvaluator eval(&registry_, "m", {.min_samples_per_arm = 20});
  ASSERT_TRUE(eval.Start(2).ok());
  FlightEvaluator::Decision d = FlightEvaluator::Decision::kPending;
  for (int i = 0; i < 500 && d == FlightEvaluator::Decision::kPending; ++i) {
    uint32_t v = Arm(i);
    double err = v == 2 ? 2.0 : 1.0;  // treatment regresses
    d = eval.RecordError(v, err);
  }
  EXPECT_EQ(d, FlightEvaluator::Decision::kAborted);
  EXPECT_EQ(registry_.DeployedVersion("m"), 1u);
  EXPECT_FALSE(registry_.FlightActive("m"));
}

TEST_F(FlightTest, ComparableArmsStayPending) {
  FlightEvaluator eval(&registry_, "m",
                       {.min_samples_per_arm = 20,
                        .promote_ratio = 0.9,
                        .abort_ratio = 1.2});
  ASSERT_TRUE(eval.Start(2).ok());
  FlightEvaluator::Decision d = FlightEvaluator::Decision::kPending;
  for (int i = 0; i < 300; ++i) {
    uint32_t v = Arm(i);
    d = eval.RecordError(v, 1.0);  // identical error
    ASSERT_EQ(d, FlightEvaluator::Decision::kPending);
  }
  EXPECT_GT(eval.control_samples(), 20u);
  EXPECT_GT(eval.treatment_samples(), 20u);
  EXPECT_TRUE(registry_.FlightActive("m"));  // still collecting
}

TEST_F(FlightTest, NoDecisionBeforeMinSamples) {
  FlightEvaluator eval(&registry_, "m", {.min_samples_per_arm = 50});
  ASSERT_TRUE(eval.Start(2).ok());
  for (int i = 0; i < 40; ++i) {
    uint32_t v = Arm(i);
    EXPECT_EQ(eval.RecordError(v, v == 2 ? 0.1 : 1.0),
              FlightEvaluator::Decision::kPending);
  }
}

TEST_F(FlightTest, InjectedTreatmentFaultsForceAbort) {
  // A treatment arm that intermittently fails (injected faults produce a
  // large serving error) must trip the abort path even though its
  // fault-free predictions are fine.
  common::FaultInjector injector(9);
  injector.Configure("flight.treatment", {.probability = 0.4});
  FlightEvaluator eval(&registry_, "m", {.min_samples_per_arm = 20});
  ASSERT_TRUE(eval.Start(2).ok());
  FlightEvaluator::Decision d = FlightEvaluator::Decision::kPending;
  int faults_seen = 0;
  for (int i = 0; i < 1000 && d == FlightEvaluator::Decision::kPending; ++i) {
    uint32_t v = Arm(i);
    double err = 1.0;  // both arms equally accurate when healthy
    if (v == 2 && injector.ShouldFail("flight.treatment")) {
      err = 10.0;  // a failed treatment request serves garbage
      ++faults_seen;
    }
    d = eval.RecordError(v, err);
  }
  EXPECT_GT(faults_seen, 0);
  EXPECT_EQ(d, FlightEvaluator::Decision::kAborted);
  EXPECT_FALSE(registry_.FlightActive("m"));
  // The control stays deployed; nothing to roll back to afterwards.
  EXPECT_EQ(registry_.DeployedVersion("m"), 1u);
  EXPECT_GT(eval.treatment_mean_error(), eval.control_mean_error());
}

TEST_F(FlightTest, AbortThenRollbackRestoresLastGoodDeployment) {
  // Deploy v2 on top of v1, then flight a faulty v3: the abort keeps v2,
  // and an operator rollback (the reacting-fast mechanism) restores v1.
  registry_.Register("m", BlobWithSlope(3.0));  // v3: faulty candidate
  ADS_CHECK_OK(registry_.Deploy("m", 2));
  common::FaultInjector injector(3);
  injector.Configure("flight.treatment", {.probability = 1.0});
  FlightEvaluator eval(&registry_, "m", {.min_samples_per_arm = 10});
  ASSERT_TRUE(eval.Start(3).ok());
  FlightEvaluator::Decision d = FlightEvaluator::Decision::kPending;
  for (int i = 0; i < 500 && d == FlightEvaluator::Decision::kPending; ++i) {
    uint32_t v = Arm(i, /*control=*/2, /*treatment=*/3);
    double err =
        (v == 3 && injector.ShouldFail("flight.treatment")) ? 10.0 : 1.0;
    d = eval.RecordError(v, err);
  }
  ASSERT_EQ(d, FlightEvaluator::Decision::kAborted);
  EXPECT_EQ(registry_.DeployedVersion("m"), 2u);
  EXPECT_EQ(registry_.PreviousVersion("m"), 1u);
  ASSERT_TRUE(registry_.Rollback("m").ok());
  EXPECT_EQ(registry_.DeployedVersion("m"), 1u);
}

TEST_F(FlightTest, DecisionIsFinal) {
  FlightEvaluator eval(&registry_, "m", {.min_samples_per_arm = 5});
  ASSERT_TRUE(eval.Start(2).ok());
  FlightEvaluator::Decision d = FlightEvaluator::Decision::kPending;
  for (int i = 0; i < 200 && d == FlightEvaluator::Decision::kPending; ++i) {
    uint32_t v = Arm(i);
    d = eval.RecordError(v, v == 2 ? 0.1 : 1.0);
  }
  ASSERT_EQ(d, FlightEvaluator::Decision::kPromoted);
  const size_t treatment_n = eval.treatment_samples();
  // Late errors, even terrible ones, neither count nor reopen the flight.
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(eval.RecordError(2, 100.0),
              FlightEvaluator::Decision::kPromoted);
  }
  EXPECT_EQ(eval.treatment_samples(), treatment_n);
  EXPECT_EQ(registry_.DeployedVersion("m"), 2u);
  EXPECT_FALSE(registry_.FlightActive("m"));
}

}  // namespace
}  // namespace ads::autonomy
