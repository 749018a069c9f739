#ifndef ADS_TELEMETRY_GAUGES_H_
#define ADS_TELEMETRY_GAUGES_H_

#include <string>
#include <utility>

#include "telemetry/metric.h"
#include "telemetry/store.h"

namespace ads::telemetry {

/// Scoped gauge writer: a TelemetryStore handle that prepends a metric
/// prefix and merges a base label set into every sample it records. This
/// is how N copies of one component (fleet shards, replica runtimes)
/// share a single store without their series colliding — each copy gets a
/// scope like ("fleet.serve.", {shard: "2", replica: "0"}) and keeps
/// recording the same relative names ("queue_depth", "latency.p99").
///
/// The single-instance emitters (ServingRuntime, VirtualServer) use the
/// default scope ("serve.", no labels), which reproduces their historical
/// series names exactly — existing dashboards and tests see no change.
///
/// Cheap value type: copy freely. Thread-safety is the store's (all
/// writes go through TelemetryStore::Record, which locks internally).
class ScopedGauges {
 public:
  ScopedGauges(TelemetryStore* store, std::string prefix,
               LabelSet labels = {})
      : store_(store), prefix_(std::move(prefix)), labels_(std::move(labels)) {}

  /// Records prefix + name with the base labels merged under `extra`
  /// (extra wins on key collisions). No-op when the store is null, so
  /// callers can thread an optional scope without null checks.
  void Record(const std::string& name, double time, double value,
              const LabelSet& extra = {}) const;

  TelemetryStore* store() const { return store_; }
  const std::string& prefix() const { return prefix_; }
  const LabelSet& labels() const { return labels_; }

 private:
  TelemetryStore* store_;
  std::string prefix_;
  LabelSet labels_;
};

}  // namespace ads::telemetry

#endif  // ADS_TELEMETRY_GAUGES_H_
