// P3 — serving: the concurrent prediction-serving runtime, measured in
// virtual time. Every experiment drives the same ServingCore (admission
// control, load shedding, rate limiting, micro-batching) through the
// deterministic event-loop server, so two runs — at any ADS_THREADS —
// print byte-identical output. The threaded runtime shares the core and
// is covered by tests/serve/runtime_test.cc.
//
//   1. Micro-batching: throughput and tail latency vs. offered load with
//      batching off and on. Amortizing the fixed dispatch overhead turns
//      a saturated backend into a keeping-up one.
//
//   2. Load shedding: the same overload with an unbounded queue (latency
//      grows without bound) vs. a bounded queue plus per-request
//      deadlines (p99 stays flat, losses are explicit and accounted).
//
//   3. Faults: injected deployed-model failures under batched serving.
//      The fallback chain answers every request; the breaker trips and
//      the tier mix shifts instead of availability dropping.
//
//   4. Fleet: the sharded tier (VirtualFleet) at 1/4/16 shards with
//      per-shard load held constant, hedging off vs. on — the tail
//      collapse hedged requests buy — plus a rolling drain across 4
//      shards with availability and reroute accounting.
//
// Output: human tables on stdout; machine-readable JSON via --out=PATH
// (default BENCH_p3.json). `--smoke` runs the same experiments at 1/10
// the request volume and caps the fleet sweep at 4 shards (CI).

#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "autonomy/serving.h"
#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/table.h"
#include "fleet/virtual_fleet.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/virtual_server.h"

using namespace ads;  // NOLINT: bench brevity
using bench::Metric;

namespace {

size_t g_scale = 10;  // --smoke drops this to 1
bool g_smoke = false;

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

/// Registry + resilient fallback chain for one model name.
struct Backend {
  ml::ModelRegistry registry;
  std::unique_ptr<autonomy::ResilientModelServer> server;

  explicit Backend(common::FaultInjector* injector = nullptr) {
    registry.Register("latency", BlobWithSlope(2.0));
    registry.Register("latency", BlobWithSlope(3.0));
    ADS_CHECK_OK(registry.Deploy("latency", 1));
    ADS_CHECK_OK(registry.Deploy("latency", 2));
    autonomy::ServingOptions options;
    options.breaker.failure_threshold = 3;
    options.breaker.cooldown_seconds = 5.0;
    server = std::make_unique<autonomy::ResilientModelServer>(
        &registry, "latency",
        [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; },
        options, injector);
  }
};

serve::Request Req(uint64_t id, double deadline =
                                    std::numeric_limits<double>::infinity()) {
  serve::Request r;
  r.id = id;
  r.model = "latency";
  r.tenant = "t0";
  r.features = {1.0 + 0.1 * static_cast<double>(id % 7)};
  r.deadline = deadline;
  return r;
}

/// Uniform arrivals at `rate` rps; relative deadline <= 0 means none.
serve::VirtualReport Drive(const serve::VirtualOptions& options, size_t count,
                           double rate, double relative_deadline = 0.0,
                           common::FaultInjector* injector = nullptr,
                           serve::VirtualServer::Callback callback = nullptr) {
  Backend backend(injector);
  serve::VirtualServer server(options);
  server.RegisterBackend("latency", backend.server.get());
  if (callback) server.SetResponseCallback(std::move(callback));
  for (size_t i = 0; i < count; ++i) {
    double t = static_cast<double>(i) / rate;
    double deadline = relative_deadline > 0.0
                          ? t + relative_deadline
                          : std::numeric_limits<double>::infinity();
    server.SubmitAt(t, Req(i, deadline));
  }
  return server.Run();
}

void RunBatching() {
  common::Table table({"offered rps", "batching", "throughput rps",
                       "mean batch", "p50 (ms)", "p99 (ms)", "served"});
  const size_t kRequests = 200 * g_scale;
  for (double rate : {400.0, 1000.0, 2000.0, 3000.0}) {
    for (bool batching : {false, true}) {
      serve::VirtualOptions options;
      options.core.batching = batching;
      options.core.batcher = {.max_batch_size = 16,
                              .max_linger_seconds = 0.004};
      options.core.queue_capacity = std::numeric_limits<size_t>::max();
      options.workers = 2;
      serve::VirtualReport r = Drive(options, kRequests, rate);
      table.AddRow({common::Table::Num(rate, 0), batching ? "on" : "off",
                    common::Table::Num(r.throughput_rps, 0),
                    common::Table::Num(r.mean_batch_size, 2),
                    common::Table::Num(r.latency.p50 * 1e3, 2),
                    common::Table::Num(r.latency.p99 * 1e3, 2),
                    std::to_string(r.counters.served)});
    }
  }
  std::printf("service model: 2 ms dispatch overhead + 0.5 ms per request, "
              "2 workers, %zu requests per cell\n", kRequests);
  table.Print("P3.1 | micro-batching: throughput and tail latency vs. "
              "offered load");
}

void RunShedding() {
  common::Table table({"admission", "served", "shed", "rejected", "p50 (ms)",
                       "p99 (ms)", "max queue"});
  const size_t kRequests = 200 * g_scale;
  const double kRate = 800.0;  // ~2x a single unbatched worker's capacity
  for (bool shedding : {false, true}) {
    serve::VirtualOptions options;
    options.core.batching = false;
    options.core.queue_capacity =
        shedding ? 32 : std::numeric_limits<size_t>::max();
    options.workers = 1;
    double deadline = shedding ? 0.05 : 0.0;
    serve::VirtualReport r = Drive(options, kRequests, kRate, deadline);
    const serve::Counters& c = r.counters;
    table.AddRow({shedding ? "cap 32 + 50ms deadline" : "unbounded",
                  std::to_string(c.served),
                  std::to_string(c.shed_capacity + c.shed_deadline),
                  std::to_string(c.Rejected()),
                  common::Table::Num(r.latency.p50 * 1e3, 1),
                  common::Table::Num(r.latency.p99 * 1e3, 1),
                  std::to_string(r.max_queue_depth)});
    ADS_CHECK(c.accepted == c.Finished());  // lossless drain
  }
  std::printf("offered %.0f rps against ~400 rps capacity (1 worker, "
              "batching off), %zu requests\n", kRate, kRequests);
  table.Print("P3.2 | load shedding: bounded queue + deadlines cap p99 "
              "where FIFO latency diverges");
}

void RunFaults() {
  common::Table table({"deployed fault rate", "served", "deployed",
                       "previous", "heuristic", "p99 (ms)"});
  const size_t kRequests = 100 * g_scale;
  for (double rate : {0.0, 0.05, 0.3, 0.8}) {
    common::FaultInjector injector(23);
    injector.Configure("serving.deployed", {.probability = rate});
    serve::VirtualOptions options;
    options.core.batcher = {.max_batch_size = 8, .max_linger_seconds = 0.002};
    std::map<autonomy::ResilientModelServer::Tier, uint64_t> tiers;
    serve::VirtualReport r =
        Drive(options, kRequests, 500.0, 0.0, &injector,
              [&tiers](const serve::Response& response) {
                if (response.outcome == serve::Outcome::kServed) {
                  ++tiers[response.tier];
                }
              });
    using Tier = autonomy::ResilientModelServer::Tier;
    table.AddRow({common::Table::Pct(rate),
                  std::to_string(r.counters.served),
                  std::to_string(tiers[Tier::kDeployed]),
                  std::to_string(tiers[Tier::kPrevious]),
                  std::to_string(tiers[Tier::kHeuristic]),
                  common::Table::Num(r.latency.p99 * 1e3, 2)});
    ADS_CHECK(r.counters.served == kRequests);  // availability holds
  }
  table.Print("P3.3 | faults: fallback tier mix under injected deployed-"
              "model failures (availability stays 100%)");
}

// --------------------------------------------------------------------
// P3.4: the sharded fleet.
// --------------------------------------------------------------------

/// One fleet run: `shards` shards x 2 replicas, per-shard load held
/// constant (weak scaling), 5% of dispatches stalling 16x. Hedging, when
/// on, duplicates a request once it outlives ~p90 of observed latency.
fleet::VirtualFleetReport DriveFleet(size_t shards, bool hedge,
                                     bool rolling_drain) {
  Backend backend;
  fleet::VirtualFleetOptions options;
  options.shards = shards;
  options.replicas_per_shard = 2;
  options.workers_per_replica = 2;
  options.seed = 19;
  options.core.batching = false;
  options.slow_probability = 0.05;
  options.slow_multiplier = 16.0;
  options.hedge.enabled = hedge;
  options.hedge.quantile = 0.9;
  options.hedge.delay_factor = 1.5;
  options.hedge.min_samples = 16;
  options.hedge.initial_delay_seconds = 0.010;
  if (rolling_drain) {
    // Micro-batching with a linger keeps queues standing so each drain
    // has live work to reroute.
    options.core.batching = true;
    options.core.batcher = {.max_batch_size = 8, .max_linger_seconds = 0.010};
  }
  fleet::VirtualFleet fleet(options);
  fleet.RegisterBackend("latency", backend.server.get());
  // 200 rps/shard keeps the hot shard (consistent-hash placement is not
  // perfectly even) well under capacity: queueing delay would otherwise
  // leak into the hedge quantile and push the delay toward the straggler
  // latency itself, blunting the hedges it is meant to time.
  const size_t kRequests = 120 * g_scale * shards;
  const double rate = 200.0 * static_cast<double>(shards);
  const size_t tenants = 16 * shards;
  for (size_t i = 0; i < kRequests; ++i) {
    serve::Request r = Req(i);
    r.tenant = "tenant-" + std::to_string(i % tenants);
    fleet.SubmitAt(static_cast<double>(i) / rate, std::move(r));
  }
  if (rolling_drain) {
    const double horizon = static_cast<double>(kRequests) / rate;
    fleet.ScheduleRollingDrain(0.2 * horizon,
                               (0.6 * horizon) / static_cast<double>(shards));
  }
  return fleet.Run();
}

void RunFleet() {
  common::Table table({"shards", "hedging", "p50 (ms)", "p99 (ms)",
                       "throughput rps", "hedges fired", "hedge wins",
                       "served"});
  const size_t kMaxShards = g_smoke ? 4 : 16;
  for (size_t shards = 1; shards <= kMaxShards; shards *= 4) {
    double p99_off = 0.0;
    for (bool hedge : {false, true}) {
      fleet::VirtualFleetReport r = DriveFleet(shards, hedge, false);
      ADS_CHECK(r.availability == 1.0) << "fleet bench lost work";
      table.AddRow({std::to_string(shards), hedge ? "on" : "off",
                    common::Table::Num(r.latency.p50 * 1e3, 2),
                    common::Table::Num(r.latency.p99 * 1e3, 2),
                    common::Table::Num(r.throughput_rps, 0),
                    std::to_string(r.fleet.hedges_fired),
                    std::to_string(r.fleet.hedge_wins),
                    std::to_string(r.fleet.served)});
      const std::string prefix =
          "fleet_shards" + std::to_string(shards) + (hedge ? "_hedged" : "");
      Metric(prefix + "_p50_seconds", r.latency.p50);
      Metric(prefix + "_p99_seconds", r.latency.p99);
      Metric(prefix + "_throughput_rps", r.throughput_rps);
      Metric(prefix + "_hedges_fired",
             static_cast<double>(r.fleet.hedges_fired));
      if (hedge) {
        // The headline claim: with a replica group to hedge into, the
        // duplicate beats the straggler and the p99 collapses.
        if (shards >= 4) {
          ADS_CHECK(r.latency.p99 < p99_off)
              << "hedging failed to cut p99 at " << shards << " shards";
        }
        ADS_CHECK(r.fleet.hedges_fired ==
                  r.fleet.hedge_wins + r.fleet.primary_wins +
                      r.fleet.hedges_failed);
        ADS_CHECK(r.fleet.hedges_fired == r.fleet.hedges_cancelled);
      } else {
        p99_off = r.latency.p99;
      }
    }
  }
  std::printf("2 replicas x 2 workers per shard, 5%% of dispatches stall "
              "16x, per-shard load constant (200 rps, %zu requests per "
              "shard)\n", 120 * g_scale);
  table.Print("P3.4 | sharded fleet: hedged requests collapse the "
              "straggler tail (first completion wins)");

  // Rolling drain: one shard down at a time across a 4-shard fleet.
  fleet::VirtualFleetReport drain = DriveFleet(4, false, true);
  ADS_CHECK(drain.availability == 1.0)
      << "rolling drain must not lose accepted work";
  ADS_CHECK(drain.fleet.rerouted_out == drain.fleet.rerouted_in);
  common::Table drain_table({"availability", "served", "drain diverts",
                             "queued reroutes", "p99 (ms)"});
  drain_table.AddRow({common::Table::Pct(drain.availability),
                      std::to_string(drain.fleet.served),
                      std::to_string(drain.fleet.drain_diverts),
                      std::to_string(drain.fleet.rerouted_out),
                      common::Table::Num(drain.latency.p99 * 1e3, 2)});
  std::printf("\n4 shards drained and rejoined one at a time under the "
              "same load (micro-batching on)\n");
  drain_table.Print("P3.4b | rolling drain: zero-downtime deploys with "
                    "exact reroute accounting");
  Metric("fleet_drain_availability", drain.availability);
  Metric("fleet_drain_diverts",
         static_cast<double>(drain.fleet.drain_diverts));
  Metric("fleet_drain_queued_reroutes",
         static_cast<double>(drain.fleet.rerouted_out));
  Metric("fleet_drain_p99_seconds", drain.latency.p99);
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_p3.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      g_scale = 1;
      g_smoke = true;
    }
    const std::string flag = "--out=";
    if (arg.rfind(flag, 0) == 0) out = arg.substr(flag.size());
  }
  std::printf("P3 | serving bench: SLO-aware prediction serving in "
              "deterministic virtual time%s\n\n",
              g_smoke ? " (smoke)" : "");
  RunBatching();
  std::printf("\n");
  RunShedding();
  std::printf("\n");
  RunFaults();
  std::printf("\n");
  RunFleet();
  bench::WriteJson(out, "bench_p3_serving", g_smoke);
  return 0;
}
