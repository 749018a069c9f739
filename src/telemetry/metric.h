#ifndef ADS_TELEMETRY_METRIC_H_
#define ADS_TELEMETRY_METRIC_H_

#include <map>
#include <string>
#include <vector>

namespace ads::telemetry {

/// One timestamped sample of a metric.
struct MetricPoint {
  double time = 0.0;  // simulation seconds
  double value = 0.0;
};

/// Label set identifying one time series within a metric
/// (e.g. {machine: "m17", sku: "gen4"}).
using LabelSet = std::map<std::string, std::string>;

/// A named time series with its identifying labels. `name` is the canonical
/// (OpenTelemetry-style) metric name, e.g. "system.cpu.utilization".
struct MetricSeries {
  std::string name;
  std::string unit;
  LabelSet labels;
  std::vector<MetricPoint> points;
};

}  // namespace ads::telemetry

#endif  // ADS_TELEMETRY_METRIC_H_
