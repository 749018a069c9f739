#ifndef ADS_FLEET_RUNTIME_H_
#define ADS_FLEET_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "fleet/core.h"
#include "serve/runtime.h"
#include "serve/types.h"
#include "telemetry/span.h"
#include "telemetry/store.h"

namespace ads::fleet {

struct FleetRuntimeOptions {
  size_t shards = 4;
  size_t replicas_per_shard = 2;
  /// Admission/batching policy instantiated per replica runtime.
  serve::CoreOptions core;
  HedgeOptions hedge;
  RouterOptions router;
};

/// Threaded runtime over FleetCore (routing, version pin, hedge/ownership
/// state machine, ShardCounters ledger — the core VirtualFleet drives in
/// virtual time). It owns the mutex serializing the core, the hedger
/// thread, one ServingRuntime per replica and one fleet clock. Use
/// VirtualFleet for byte-stable experiments and this under real load.
///
/// Drain model: DrainShard diverts new arrivals via the ring; work already
/// queued on the shard completes in place (a real runtime cannot un-send
/// what its dispatcher may already be executing), so a rolling deploy is
/// drain → WaitShardQuiesced → swap → RejoinShard with zero lost requests.
/// The mid-drain queue reroute with ownership transfer is exercised in
/// virtual time, where it is observable deterministically.
///
/// Every logical request gets exactly one user callback, even when hedged:
/// the first served copy (with the logical latency, from fleet admission)
/// or, once every copy failed, the primary's failure.
class FleetRuntime {
 public:
  using Callback = serve::ServingRuntime::Callback;

  /// `pool` is borrowed, shared by every replica runtime, and must outlive
  /// the fleet.
  FleetRuntime(FleetRuntimeOptions options, common::ThreadPool* pool);
  ~FleetRuntime();

  FleetRuntime(const FleetRuntime&) = delete;
  FleetRuntime& operator=(const FleetRuntime&) = delete;

  /// Registers a model on every replica (fleet-wide). Borrowed; must
  /// outlive Shutdown(). The fleet installs one shared per-model mutex
  /// across all replica runtimes, so the non-thread-safe backend never
  /// sees interleaved Predict calls — replicas serialize on the backend,
  /// which models a shared model store behind independent serving queues.
  void RegisterBackend(const std::string& model,
                       autonomy::ResilientModelServer* backend);

  /// Version router for FleetCore::Pin, consulted once per request at
  /// Submit, before placement.
  void SetVersionRouter(const autonomy::VersionRouter* router);
  /// Forwards a thread-safe tracer to every replica runtime.
  void SetTracer(telemetry::Tracer* tracer);

  void Start();

  /// Thread-safe. Routes by (tenant, id), stamps the version pin, and
  /// submits to the chosen replica. `callback` fires exactly once with the
  /// logical outcome; requests accepted with hedging enabled may fire a
  /// duplicate later. Request ids must be unique across the fleet.
  common::Status Submit(serve::Request request, Callback callback);

  /// Diverts new arrivals away from `shard` (ring fallback order). Queued
  /// and in-flight work completes in place.
  void DrainShard(ShardId shard) { core_.router().DrainShard(shard); }
  void RejoinShard(ShardId shard) { core_.router().RejoinShard(shard); }
  /// Blocks until the shard has no queued work and no unresolved flight
  /// whose primary copy lives there. Call after DrainShard to know the
  /// shard is safe to restart.
  void WaitShardQuiesced(ShardId shard) const;

  /// Stops the hedger, drains every replica runtime, and checks the
  /// fleet accounting invariants. Idempotent.
  void Shutdown();

  std::vector<ShardCounters> CountersSnapshot() const;
  ShardCounters FleetCounters() const;
  serve::ServingStats ReplicaStats(ShardId shard, size_t r) const;
  const FleetRouter& router() const { return core_.router(); }
  /// Current quantile-derived hedge delay (seconds).
  double HedgeDelay() const;

  /// Publishes per-replica serving gauges (prefix "fleet.serve.", labels
  /// {shard, replica}) and per-shard fleet counters (prefix "fleet.",
  /// label {shard}) into `store`, and refreshes the router's load view.
  void SampleGauges(telemetry::TelemetryStore* store);

 private:
  struct HedgeDeadline {
    std::chrono::steady_clock::time_point due;
    uint64_t id;
    bool operator>(const HedgeDeadline& other) const {
      return due > other.due;
    }
  };

  serve::ServingRuntime& replica(ShardId shard, size_t r) const {
    return *runtimes_[shard * options_.replicas_per_shard + r];
  }
  /// Seconds since Start() on the fleet clock.
  double Now() const;
  /// Funnel for every copy response; resolves / finalizes the flight and
  /// invokes the user callback outside mu_.
  void OnCopyResponse(uint64_t id, FleetCore::Copy copy,
                      const serve::Response& response);
  void HedgerLoop();
  /// Fires one due hedge (called from the hedger with mu_ held; drops the
  /// lock around the inner Submit).
  void FireHedge(uint64_t id, std::unique_lock<std::mutex>& lock);

  FleetRuntimeOptions options_;
  common::ThreadPool* pool_;
  std::vector<std::unique_ptr<serve::ServingRuntime>> runtimes_;
  std::map<std::string, autonomy::ResilientModelServer*> backends_;
  /// Fleet-wide per-model backend serialization (see RegisterBackend).
  std::map<std::string, std::unique_ptr<std::mutex>> backend_serialization_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable hedger_wake_;
  FleetCore core_;
  std::priority_queue<HedgeDeadline, std::vector<HedgeDeadline>,
                      std::greater<HedgeDeadline>>
      hedge_deadlines_;
  bool started_ = false;
  bool shutting_down_ = false;
  std::thread hedger_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_RUNTIME_H_
