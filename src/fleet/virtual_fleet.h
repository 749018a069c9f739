#ifndef ADS_FLEET_VIRTUAL_FLEET_H_
#define ADS_FLEET_VIRTUAL_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/event_queue.h"
#include "common/rng.h"
#include "common/stats.h"
#include "fleet/core.h"
#include "serve/core.h"
#include "serve/types.h"
#include "serve/virtual_server.h"
#include "telemetry/span.h"
#include "telemetry/store.h"

namespace ads::fleet {

struct VirtualFleetOptions {
  size_t shards = 4;
  size_t replicas_per_shard = 2;
  /// Concurrent simulated batch executors per replica.
  size_t workers_per_replica = 1;
  /// Admission/batching policy instantiated per replica core.
  serve::CoreOptions core;
  serve::ServiceTimeModel service;
  /// Straggler model: each dispatched batch independently draws slow with
  /// this probability and takes slow_multiplier times its nominal service
  /// time. This is the tail hedging exists to cut — with it at 0 hedging
  /// can only lose (duplicate work, no stragglers to beat).
  double slow_probability = 0.0;
  double slow_multiplier = 8.0;
  /// Seeds the per-replica service-noise streams (forked in fixed order).
  uint64_t seed = 1;
  HedgeOptions hedge;
  RouterOptions router;
  /// Per-shard gauge-sampling period into the telemetry store (0 = off).
  double telemetry_period_seconds = 0.0;
};

/// End-of-run aggregate of one virtual-time fleet experiment.
struct VirtualFleetReport {
  /// Element-wise sum of `shards` — the fleet ledger. Invariant:
  /// fleet.accepted == fleet.served + fleet.Shed().
  ShardCounters fleet;
  std::vector<ShardCounters> shards;
  /// End-to-end latency digest over served logical requests (seconds),
  /// measured original-admission → winning-copy completion.
  common::QuantileSummary latency;
  std::vector<common::QuantileSummary> shard_latency;
  double mean_batch_size = 0.0;
  /// Max over time of fleet-wide queued requests.
  size_t max_queue_depth = 0;
  double horizon_seconds = 0.0;
  double throughput_rps = 0.0;
  /// served / accepted over the whole fleet (1.0 when nothing accepted):
  /// the zero-downtime claim of a rolling drain is availability == 1.0.
  double availability = 0.0;
  /// Hedge delay in force when the run ended (quantile-derived).
  double hedge_delay_seconds = 0.0;
};

/// Virtual-time runtime over FleetCore (routing, version pin, hedging and the
/// logical-request ledger — the core FleetRuntime drives with threads):
/// N shards of M replica cores under one discrete-event loop. It owns the
/// event queue, the deterministic service-time model, the spans and the
/// report, so for a fixed seed report and span table are byte-identical
/// across runs and ADS_THREADS values. Drains reroute queued copies to
/// each tenant's fallback shard; cancelled losers are discarded at
/// completion (virtual time cannot interrupt an in-flight batch, matching
/// a real runtime that cannot un-send an RPC).
class VirtualFleet {
 public:
  using Callback = std::function<void(const serve::Response&)>;

  explicit VirtualFleet(VirtualFleetOptions options,
                        telemetry::TelemetryStore* store = nullptr);

  /// Registers a model backend fleet-wide (every replica serves it).
  /// Borrowed; must outlive Run().
  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend);

  /// Version router consulted once per logical request at admission; the
  /// pin travels with both copies and survives reroute, so flighting
  /// decisions (canary slices) are never re-made mid-request.
  void SetRouter(const autonomy::VersionRouter* router);
  void SetTracer(telemetry::Tracer* tracer);
  void SetResponseCallback(Callback callback);

  /// Schedules one logical request arrival at simulated time `t`.
  void SubmitAt(double t, serve::Request request);

  /// Schedules a shard drain at `t`: new arrivals divert via the ring,
  /// queued copies reroute to each tenant's first healthy fallback, and
  /// in-flight batches run to completion in place.
  void ScheduleDrain(double t, ShardId shard);
  void ScheduleRejoin(double t, ShardId shard);
  /// Rolling deploy: drains shard s at start + s*dwell and rejoins it at
  /// start + (s+1)*dwell — exactly one shard down at any moment.
  void ScheduleRollingDrain(double start, double dwell_seconds);

  /// Runs the event loop to completion. One-shot. Checks the per-shard
  /// and fleet-wide accounting invariants before returning.
  VirtualFleetReport Run();

  const FleetRouter& router() const { return core_.router(); }
  const HedgePolicy& hedge_policy() const { return core_.hedge_policy(); }

 private:
  /// One replica: a full admission core plus its virtual workers and its
  /// private service-noise stream.
  struct Replica {
    explicit Replica(const serve::CoreOptions& core_options, uint64_t seed)
        : core(core_options), rng(seed) {}
    serve::ServingCore core;
    common::Rng rng;
    size_t busy_workers = 0;
  };

  Replica& replica(ShardId shard, size_t r) {
    return replicas_[shard * options_.replicas_per_shard + r];
  }
  size_t ShardQueueDepth(ShardId shard) const;
  size_t FleetQueueDepth() const;

  void OnArrival(serve::Request request, double now);
  void FireHedge(uint64_t id, double now);
  void Dispatch(ShardId shard, size_t r, double now);
  void OnBatchComplete(ShardId shard, size_t r, serve::Batch batch,
                       double dispatched, double now);
  /// Copy-level terminal failure (eviction / deadline shed) in core
  /// (shard, r); the core has already closed the copy's span.
  void OnCopyFailure(ShardId shard, size_t r, uint64_t id,
                     serve::Outcome outcome, double now);
  void DrainShardNow(ShardId shard, double now);
  void RejoinShardNow(ShardId shard, double now);
  /// Closes the flight once its last copy is done: emits the failure
  /// response of a flight no copy served and ends its root span.
  void MaybeFinalize(FleetCore::Flights::iterator it, double now);
  void Emit(const serve::Response& response);
  void SampleGauges(double now);

  VirtualFleetOptions options_;
  telemetry::TelemetryStore* store_;
  telemetry::Tracer* tracer_ = nullptr;
  common::EventQueue queue_;
  FleetCore core_;
  std::vector<Replica> replicas_;
  std::map<std::string, autonomy::ResilientModelServer*> backends_;
  Callback callback_;
  bool ran_ = false;

  std::vector<telemetry::SpanId> drain_spans_;
  common::QuantileSketch latency_;
  std::vector<common::QuantileSketch> shard_latency_;
  common::RunningMoments batch_size_;
  size_t max_queue_depth_ = 0;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_VIRTUAL_FLEET_H_
