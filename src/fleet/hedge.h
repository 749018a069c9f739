#ifndef ADS_FLEET_HEDGE_H_
#define ADS_FLEET_HEDGE_H_

#include <cstddef>

#include "common/stats.h"

namespace ads::fleet {

struct HedgeOptions {
  bool enabled = false;
  /// The hedge delay is this quantile of observed served latencies...
  double quantile = 0.95;
  /// ...times this factor (a factor > 1 hedges only clear stragglers).
  double delay_factor = 1.0;
  /// Clamp on the derived delay: never hedge sooner than min (protects
  /// against a collapsed latency distribution duplicating everything) or
  /// later than max (bounds worst-case straggler exposure).
  double min_delay_seconds = 0.001;
  double max_delay_seconds = 1.0;
  /// Delay used until min_samples latencies have been observed.
  double initial_delay_seconds = 0.050;
  size_t min_samples = 32;
};

/// Tail-latency hedging policy: decides *when* a second copy of a slow
/// request should be launched. The delay tracks the live latency
/// distribution — "hedge once the request has outlived the p95" — so the
/// duplicate-work budget stays pinned to roughly (1 - quantile) of
/// traffic no matter how the service time drifts. FleetCore owns *where*
/// the duplicate goes (the next replica in the shard's group) and the
/// winner/loser bookkeeping; FleetRuntime serializes Observe under its
/// mutex.
class HedgePolicy {
 public:
  explicit HedgePolicy(HedgeOptions options = HedgeOptions());

  bool enabled() const { return options_.enabled; }

  /// Feeds one served end-to-end latency into the distribution.
  void Observe(double latency_seconds);

  /// Quantile-derived delay between a request's admission and its hedge
  /// firing, clamped to [min_delay, max_delay]; initial_delay until the
  /// distribution has min_samples points.
  double Delay() const;

  size_t samples() const { return latency_.Count(); }
  const HedgeOptions& options() const { return options_; }

 private:
  HedgeOptions options_;
  common::QuantileSketch latency_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_HEDGE_H_
