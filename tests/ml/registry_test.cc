#include "ml/registry.h"

#include <gtest/gtest.h>

#include "ml/linear.h"

namespace ads::ml {
namespace {

std::string FakeBlob(double slope) {
  LinearRegressor model;
  model.SetCoefficients(0.0, {slope});
  return model.Serialize();
}

TEST(RegistryTest, RegisterAssignsIncreasingVersions) {
  ModelRegistry reg;
  EXPECT_EQ(reg.Register("card", FakeBlob(1)), 1u);
  EXPECT_EQ(reg.Register("card", FakeBlob(2)), 2u);
  EXPECT_EQ(reg.Register("cost", FakeBlob(3)), 1u);
  EXPECT_EQ(reg.Versions("card"), (std::vector<uint32_t>{1, 2}));
}

TEST(RegistryTest, DeployAndFetch) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(7));
  EXPECT_EQ(reg.DeployedVersion("m"), 0u);
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 1u);
  auto model = reg.DeployedModel("m");
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ((*model)->Predict({2.0}), 14.0);
}

TEST(RegistryTest, DeployUnknownFails) {
  ModelRegistry reg;
  EXPECT_FALSE(reg.Deploy("nope", 1).ok());
  reg.Register("m", FakeBlob(1));
  EXPECT_FALSE(reg.Deploy("m", 9).ok());
  EXPECT_FALSE(reg.Deploy("m", 0).ok());
}

TEST(RegistryTest, RollbackRestoresPreviousVersion) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  reg.Register("m", FakeBlob(2));
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  ASSERT_TRUE(reg.Deploy("m", 2).ok());
  ASSERT_TRUE(reg.Rollback("m").ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 1u);
  // No more history.
  EXPECT_FALSE(reg.Rollback("m").ok());
}

TEST(RegistryTest, PreviousVersionTracksDeployHistory) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  reg.Register("m", FakeBlob(2));
  reg.Register("m", FakeBlob(3));
  EXPECT_EQ(reg.PreviousVersion("m"), 0u);  // nothing deployed yet
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  EXPECT_EQ(reg.PreviousVersion("m"), 0u);  // first deploy has no history
  ASSERT_TRUE(reg.Deploy("m", 2).ok());
  EXPECT_EQ(reg.PreviousVersion("m"), 1u);
  ASSERT_TRUE(reg.Deploy("m", 3).ok());
  EXPECT_EQ(reg.PreviousVersion("m"), 2u);
  // Rollback pops the history it consumed.
  ASSERT_TRUE(reg.Rollback("m").ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 2u);
  EXPECT_EQ(reg.PreviousVersion("m"), 1u);
  EXPECT_EQ(reg.PreviousVersion("unknown"), 0u);
}

TEST(RegistryTest, ChainedRollbacksWalkHistoryInReverse) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  reg.Register("m", FakeBlob(2));
  reg.Register("m", FakeBlob(3));
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  ASSERT_TRUE(reg.Deploy("m", 2).ok());
  ASSERT_TRUE(reg.Deploy("m", 3).ok());
  ASSERT_TRUE(reg.Rollback("m").ok());
  ASSERT_TRUE(reg.Rollback("m").ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 1u);
  EXPECT_FALSE(reg.Rollback("m").ok());  // history exhausted
  // The deployed model still serves after the chain of rollbacks.
  auto model = reg.DeployedModel("m");
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ((*model)->Predict({2.0}), 2.0);
}

TEST(RegistryTest, EndFlightPromoteDeploysTreatment) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  reg.Register("m", FakeBlob(2));
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  ASSERT_TRUE(reg.StartFlight("m", 2).ok());
  EXPECT_TRUE(reg.FlightActive("m"));
  ASSERT_TRUE(reg.EndFlight("m", /*promote=*/true).ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 2u);
  EXPECT_FALSE(reg.FlightActive("m"));
  // Promotion keeps rollback history.
  ASSERT_TRUE(reg.Rollback("m").ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 1u);
}

TEST(RegistryTest, EndFlightWithoutPromoteKeepsControl) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  reg.Register("m", FakeBlob(2));
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  ASSERT_TRUE(reg.StartFlight("m", 2).ok());
  ASSERT_TRUE(reg.EndFlight("m", /*promote=*/false).ok());
  EXPECT_EQ(reg.DeployedVersion("m"), 1u);
}

TEST(RegistryTest, FlightValidation) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  // No deployed control yet.
  EXPECT_FALSE(reg.StartFlight("m", 1).ok());
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  EXPECT_FALSE(reg.StartFlight("m", 9).ok());
  EXPECT_FALSE(reg.StartFlight("x", 1).ok());
  EXPECT_FALSE(reg.EndFlight("m", true).ok());
}

TEST(RegistryTest, MetricsStoredWithVersion) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1), {{"rmse", 0.5}});
  auto v = reg.GetVersion("m", 1);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(v->metrics.at("rmse"), 0.5);
  EXPECT_FALSE(reg.GetVersion("m", 2).ok());
}

TEST(RegistryTest, RollbackCancelsFlight) {
  ModelRegistry reg;
  reg.Register("m", FakeBlob(1));
  reg.Register("m", FakeBlob(2));
  reg.Register("m", FakeBlob(3));
  ASSERT_TRUE(reg.Deploy("m", 1).ok());
  ASSERT_TRUE(reg.Deploy("m", 2).ok());
  ASSERT_TRUE(reg.StartFlight("m", 3).ok());
  ASSERT_TRUE(reg.Rollback("m").ok());
  EXPECT_FALSE(reg.FlightActive("m"));
  EXPECT_EQ(reg.DeployedVersion("m"), 1u);
}

}  // namespace
}  // namespace ads::ml
