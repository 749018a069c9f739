#include "ml/forecast.h"

#include <cmath>

#include "common/logging.h"
#include "common/stats.h"

namespace ads::ml {

common::Status SeasonalNaiveForecaster::Fit(
    const std::vector<double>& series) {
  if (period_ == 0) {
    return common::Status::InvalidArgument("seasonal naive needs period >= 1");
  }
  if (series.size() < period_) {
    return common::Status::InvalidArgument(
        "seasonal naive needs at least one full period of history");
  }
  history_ = series;
  return common::Status::Ok();
}

double SeasonalNaiveForecaster::Forecast(size_t steps_ahead) const {
  ADS_CHECK(!history_.empty()) << "forecast before fit";
  ADS_CHECK(steps_ahead >= 1) << "steps_ahead must be >= 1";
  // Value at the same phase in the most recent complete season.
  size_t n = history_.size();
  size_t offset = (steps_ahead - 1) % period_;
  size_t base = n - period_ + offset;
  return history_[base];
}

void SeasonalNaiveForecaster::Update(double value) {
  history_.push_back(value);
}

common::Result<BacktestReport> Backtest(Forecaster& forecaster,
                                        const std::vector<double>& series,
                                        size_t min_train, size_t horizon) {
  if (min_train + horizon > series.size()) {
    return common::Status::InvalidArgument(
        "backtest needs min_train + horizon <= series length");
  }
  std::vector<double> prefix(series.begin(),
                             series.begin() + static_cast<long>(min_train));
  ADS_RETURN_IF_ERROR(forecaster.Fit(prefix));
  std::vector<double> truth;
  std::vector<double> pred;
  for (size_t t = min_train; t + horizon <= series.size(); ++t) {
    pred.push_back(forecaster.Forecast(horizon));
    truth.push_back(series[t + horizon - 1]);
    forecaster.Update(series[t]);
  }
  BacktestReport report;
  report.mape = common::MeanAbsolutePercentageError(truth, pred);
  report.rmse = common::RootMeanSquaredError(truth, pred);
  report.mae = common::MeanAbsoluteError(truth, pred);
  double mean_abs = 0.0;
  for (double t : truth) mean_abs += std::abs(t);
  mean_abs /= static_cast<double>(truth.size());
  report.wape = mean_abs > 1e-12 ? report.mae / mean_abs : 0.0;
  report.evaluations = truth.size();
  return report;
}

bool IsPredictable(const std::vector<double>& series, size_t period,
                   double mape_threshold) {
  if (series.size() < 3 * period) return false;
  SeasonalNaiveForecaster f(period);
  auto report = Backtest(f, series, 2 * period);
  if (!report.ok()) return false;
  return report->wape <= mape_threshold;
}

}  // namespace ads::ml
