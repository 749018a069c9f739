#include "ml/linear.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace ads::ml {
namespace {

Dataset LinearData(size_t n, common::Rng& rng, double noise = 0.0) {
  // y = 5 + 2*x1 - 3*x2
  Dataset d({"x1", "x2"});
  for (size_t i = 0; i < n; ++i) {
    double x1 = rng.Uniform(-5, 5);
    double x2 = rng.Uniform(-5, 5);
    d.Add({x1, x2}, 5.0 + 2.0 * x1 - 3.0 * x2 + rng.Normal(0, noise));
  }
  return d;
}

TEST(LinearRegressorTest, RecoversExactCoefficients) {
  common::Rng rng(1);
  Dataset d = LinearData(100, rng);
  LinearRegressor model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.intercept(), 5.0, 1e-8);
  EXPECT_NEAR(model.weights()[0], 2.0, 1e-8);
  EXPECT_NEAR(model.weights()[1], -3.0, 1e-8);
  EXPECT_NEAR(model.Predict({1.0, 1.0}), 4.0, 1e-8);
}

TEST(LinearRegressorTest, RobustToNoise) {
  common::Rng rng(2);
  Dataset d = LinearData(2000, rng, 1.0);
  LinearRegressor model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_NEAR(model.weights()[0], 2.0, 0.1);
  EXPECT_NEAR(model.weights()[1], -3.0, 0.1);
}

TEST(LinearRegressorTest, RidgeShrinksWeights) {
  common::Rng rng(3);
  Dataset d = LinearData(50, rng, 0.5);
  LinearRegressor plain(0.0);
  LinearRegressor ridge(100.0);
  ASSERT_TRUE(plain.Fit(d).ok());
  ASSERT_TRUE(ridge.Fit(d).ok());
  EXPECT_LT(std::abs(ridge.weights()[0]), std::abs(plain.weights()[0]));
}

TEST(LinearRegressorTest, RejectsEmptyData) {
  LinearRegressor model;
  EXPECT_FALSE(model.Fit(Dataset()).ok());
}

TEST(LinearRegressorTest, SerializeRoundTrip) {
  common::Rng rng(4);
  Dataset d = LinearData(50, rng);
  LinearRegressor model;
  ASSERT_TRUE(model.Fit(d).ok());
  auto restored = LinearRegressor::Deserialize(
      model.Serialize().substr(std::string("linear\n").size()));
  ASSERT_TRUE(restored.ok());
  EXPECT_NEAR(restored->Predict({2.0, -1.0}), model.Predict({2.0, -1.0}),
              1e-12);
}

TEST(LinearRegressorTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(LinearRegressor::Deserialize("not a model").ok());
  EXPECT_FALSE(LinearRegressor::Deserialize("1.5 3 0.1 0.2").ok());
}

TEST(LinearRegressorTest, InferenceCostScalesWithDims) {
  common::Rng rng(5);
  Dataset d = LinearData(30, rng);
  LinearRegressor model;
  ASSERT_TRUE(model.Fit(d).ok());
  EXPECT_DOUBLE_EQ(model.InferenceCost(), 5.0);  // 2*2 + 1
}

}  // namespace
}  // namespace ads::ml
