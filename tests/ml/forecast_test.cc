#include "ml/forecast.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace ads::ml {
namespace {

// A diurnal-like series: period-24 sinusoid plus level.
std::vector<double> Diurnal(size_t days, double noise, common::Rng& rng) {
  std::vector<double> out;
  for (size_t t = 0; t < days * 24; ++t) {
    double phase = 2.0 * M_PI * static_cast<double>(t % 24) / 24.0;
    out.push_back(50.0 + 20.0 * std::sin(phase) + rng.Normal(0, noise));
  }
  return out;
}

TEST(SeasonalNaiveTest, RepeatsLastSeason) {
  SeasonalNaiveForecaster f(3);
  ASSERT_TRUE(f.Fit({1, 2, 3, 4, 5, 6}).ok());
  EXPECT_DOUBLE_EQ(f.Forecast(1), 4.0);
  EXPECT_DOUBLE_EQ(f.Forecast(2), 5.0);
  EXPECT_DOUBLE_EQ(f.Forecast(3), 6.0);
  EXPECT_DOUBLE_EQ(f.Forecast(4), 4.0);  // wraps to same phase
}

TEST(SeasonalNaiveTest, UpdateShiftsWindow) {
  SeasonalNaiveForecaster f(2);
  ASSERT_TRUE(f.Fit({1, 2}).ok());
  f.Update(10);
  // History is {1, 2, 10}: one period (2) back from the next step is 2,
  // and two steps ahead lands on the new observation 10.
  EXPECT_DOUBLE_EQ(f.Forecast(1), 2.0);
  EXPECT_DOUBLE_EQ(f.Forecast(2), 10.0);
}

TEST(SeasonalNaiveTest, RejectsShortHistory) {
  SeasonalNaiveForecaster f(24);
  EXPECT_FALSE(f.Fit({1, 2, 3}).ok());
}

TEST(BacktestTest, PerfectForecastHasZeroError) {
  std::vector<double> series;
  for (int i = 0; i < 40; ++i) series.push_back((i % 4) + 1.0);
  SeasonalNaiveForecaster f(4);
  auto report = Backtest(f, series, 8);
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->mape, 0.0, 1e-12);
  EXPECT_NEAR(report->rmse, 0.0, 1e-12);
}

TEST(BacktestTest, RejectsTooShortSeries) {
  SeasonalNaiveForecaster f(4);
  std::vector<double> series(10, 1.0);
  EXPECT_FALSE(Backtest(f, series, 10, 1).ok());
}

TEST(PredictabilityTest, SeasonalSeriesIsPredictable) {
  common::Rng rng(4);
  std::vector<double> series = Diurnal(10, 1.0, rng);
  EXPECT_TRUE(IsPredictable(series, 24));
}

TEST(PredictabilityTest, WhiteNoiseIsNot) {
  common::Rng rng(5);
  std::vector<double> series;
  for (int i = 0; i < 240; ++i) series.push_back(rng.Uniform(1.0, 100.0));
  EXPECT_FALSE(IsPredictable(series, 24));
}

TEST(PredictabilityTest, TooShortSeriesIsNot) {
  EXPECT_FALSE(IsPredictable(std::vector<double>(10, 1.0), 24));
}

}  // namespace
}  // namespace ads::ml
