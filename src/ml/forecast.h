#ifndef ADS_ML_FORECAST_H_
#define ADS_ML_FORECAST_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace ads::ml {

/// Time-series forecaster over a regularly-sampled series. The service
/// layer (Seagull backup windows, Moneyball pause/resume, proactive
/// provisioning) is built on these.
class Forecaster {
 public:
  virtual ~Forecaster() = default;

  /// Fits on the historical series (oldest first).
  virtual common::Status Fit(const std::vector<double>& series) = 0;
  /// Point forecast `steps_ahead` steps past the end of the fitted series
  /// (1 = next step).
  virtual double Forecast(size_t steps_ahead) const = 0;
  /// Appends a newly observed value (online update).
  virtual void Update(double value) = 0;
  virtual std::string TypeName() const = 0;
};

/// Predicts the value observed one season ago. With a daily period this is
/// exactly the paper's "previous day" heuristic that reached 96% accuracy
/// for stable PostgreSQL/MySQL servers.
class SeasonalNaiveForecaster : public Forecaster {
 public:
  explicit SeasonalNaiveForecaster(size_t period) : period_(period) {}

  common::Status Fit(const std::vector<double>& series) override;
  double Forecast(size_t steps_ahead) const override;
  void Update(double value) override;
  std::string TypeName() const override { return "seasonal_naive"; }

 private:
  size_t period_;
  std::vector<double> history_;
};

/// Rolling-origin backtest result.
struct BacktestReport {
  double mape = 0.0;
  /// Weighted absolute percentage error: MAE / mean(|truth|). Robust to
  /// near-zero points that blow MAPE up (idle hours in usage traces).
  double wape = 0.0;
  double rmse = 0.0;
  double mae = 0.0;
  size_t evaluations = 0;
};

/// Walks the series forward: fits on a growing prefix (starting at
/// `min_train`), forecasts `horizon` steps, scores against actuals.
/// The forecaster is refit once and then updated online per step.
common::Result<BacktestReport> Backtest(Forecaster& forecaster,
                                        const std::vector<double>& series,
                                        size_t min_train, size_t horizon = 1);

/// The paper's Moneyball observation: a trace is "predictable" if a cheap
/// forecaster backtests under the given MAPE threshold.
bool IsPredictable(const std::vector<double>& series, size_t period,
                   double mape_threshold = 0.25);

}  // namespace ads::ml

#endif  // ADS_ML_FORECAST_H_
