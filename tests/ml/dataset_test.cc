#include "ml/dataset.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ads::ml {
namespace {

Dataset MakeData(size_t n) {
  Dataset d({"x1", "x2"});
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>(i);
    d.Add({v, 2.0 * v}, 3.0 * v);
  }
  return d;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d = MakeData(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.dimensions(), 2u);
  EXPECT_DOUBLE_EQ(d.row(2)[1], 4.0);
  EXPECT_DOUBLE_EQ(d.label(2), 6.0);
  EXPECT_EQ(d.feature_names()[1], "x2");
}

TEST(DatasetTest, SplitPartitionsAllRows) {
  Dataset d = MakeData(100);
  common::Rng rng(1);
  auto [train, test] = d.Split(0.7, rng);
  EXPECT_EQ(train.size(), 70u);
  EXPECT_EQ(test.size(), 30u);
  // Every label 0..297 by 3 appears exactly once across both splits.
  double total = 0.0;
  for (size_t i = 0; i < train.size(); ++i) total += train.label(i);
  for (size_t i = 0; i < test.size(); ++i) total += test.label(i);
  EXPECT_DOUBLE_EQ(total, 3.0 * 99.0 * 100.0 / 2.0);
}

TEST(DatasetTest, SplitIsDeterministic) {
  Dataset d = MakeData(50);
  common::Rng rng1(9);
  common::Rng rng2(9);
  auto [a_train, a_test] = d.Split(0.5, rng1);
  auto [b_train, b_test] = d.Split(0.5, rng2);
  ASSERT_EQ(a_train.size(), b_train.size());
  for (size_t i = 0; i < a_train.size(); ++i) {
    EXPECT_DOUBLE_EQ(a_train.label(i), b_train.label(i));
  }
}

TEST(DatasetTest, FilterSelectsRows) {
  Dataset d = MakeData(10);
  Dataset f = d.Filter({1, 3, 3});
  EXPECT_EQ(f.size(), 3u);
  EXPECT_DOUBLE_EQ(f.label(0), 3.0);
  EXPECT_DOUBLE_EQ(f.label(1), 9.0);
  EXPECT_DOUBLE_EQ(f.label(2), 9.0);
}

TEST(StandardizerTest, ZeroMeanUnitVariance) {
  Dataset d({"a"});
  for (double v : {2.0, 4.0, 6.0, 8.0}) d.Add({v}, 0.0);
  Standardizer s;
  ASSERT_TRUE(s.Fit(d).ok());
  std::vector<double> t;
  for (size_t i = 0; i < d.size(); ++i) t.push_back(s.Transform(d.row(i))[0]);
  double mean = 0.0;
  double var = 0.0;
  for (double v : t) mean += v;
  mean /= static_cast<double>(t.size());
  for (double v : t) var += (v - mean) * (v - mean);
  var /= static_cast<double>(t.size());
  EXPECT_NEAR(mean, 0.0, 1e-12);
  EXPECT_NEAR(var, 1.0, 1e-12);
}

TEST(StandardizerTest, ConstantFeaturePassesThrough) {
  Dataset d({"c", "x"});
  d.Add({5.0, 1.0}, 0.0);
  d.Add({5.0, 2.0}, 0.0);
  Standardizer s;
  ASSERT_TRUE(s.Fit(d).ok());
  std::vector<double> out = s.Transform({5.0, 1.5});
  EXPECT_DOUBLE_EQ(out[0], 0.0);  // (5-5)/1
  EXPECT_TRUE(std::isfinite(out[1]));
}

TEST(StandardizerTest, RejectsEmptyData) {
  Standardizer s;
  EXPECT_FALSE(s.Fit(Dataset()).ok());
}

}  // namespace
}  // namespace ads::ml
