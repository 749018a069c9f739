#include "fleet/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "autonomy/serving.h"
#include "common/thread_pool.h"
#include "ml/linear.h"
#include "ml/registry.h"
#include "serve/types.h"
#include "telemetry/store.h"

namespace ads::fleet {
namespace {

std::string BlobWithSlope(double slope) {
  ml::LinearRegressor model;
  model.SetCoefficients(0.0, {slope});
  return model.Serialize();
}

struct Backend {
  Backend()
      : server(&registry, "m",
               [](const std::vector<double>& f) {
                 return f.empty() ? 0.0 : f[0];
               },
               autonomy::ServingOptions()) {
    registry.Register("m", BlobWithSlope(2.0));
    EXPECT_TRUE(registry.Deploy("m", 1).ok());
  }
  ml::ModelRegistry registry;
  autonomy::ResilientModelServer server;
};

serve::Request MakeRequest(uint64_t id, const std::string& tenant) {
  serve::Request request;
  request.id = id;
  request.model = "m";
  request.tenant = tenant;
  request.features = {1.0};
  return request;
}

// Thread-safe exactly-one-callback ledger.
class Ledger {
 public:
  FleetRuntime::Callback Callback() {
    return [this](const serve::Response& response) {
      std::lock_guard<std::mutex> lock(mu_);
      count_[response.id] += 1;
      if (response.outcome == serve::Outcome::kServed) ++served_;
    };
  }
  void ExpectExactlyOneEach(size_t expected_total) {
    std::lock_guard<std::mutex> lock(mu_);
    EXPECT_EQ(count_.size(), expected_total);
    for (const auto& [id, n] : count_) {
      EXPECT_EQ(n, 1u) << "request " << id << " got " << n << " callbacks";
    }
  }
  size_t served() {
    std::lock_guard<std::mutex> lock(mu_);
    return served_;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, size_t> count_;
  size_t served_ = 0;
};

TEST(FleetRuntimeTest, ServesAcrossShardsWithExactlyOneCallbackEach) {
  Backend backend;
  common::ThreadPool pool(4);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();

  Ledger ledger;
  const size_t kRequests = 200;
  size_t accepted = 0;
  for (uint64_t i = 0; i < kRequests; ++i) {
    common::Status status = fleet.Submit(
        MakeRequest(i, "tenant-" + std::to_string(i % 16)),
        ledger.Callback());
    if (status.ok()) ++accepted;
  }
  // Shutdown drains every queue and checks the ledger invariants itself.
  fleet.Shutdown();

  EXPECT_EQ(accepted, kRequests) << "unloaded fleet rejected work";
  ledger.ExpectExactlyOneEach(kRequests);
  EXPECT_EQ(ledger.served(), kRequests);
  ShardCounters total = fleet.FleetCounters();
  EXPECT_EQ(total.submitted, kRequests);
  EXPECT_EQ(total.served, kRequests);
  EXPECT_EQ(total.accepted, total.served + total.Shed());
}

TEST(FleetRuntimeTest, DrainQuiesceRejoinLosesNothing) {
  Backend backend;
  common::ThreadPool pool(4);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 1;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();

  Ledger ledger;
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 8)),
                             ledger.Callback())
                    .ok());
  }
  // Rolling restart of shard 0 while traffic keeps flowing.
  fleet.DrainShard(0);
  EXPECT_TRUE(fleet.router().draining(0));
  for (uint64_t i = 100; i < 200; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 8)),
                             ledger.Callback())
                    .ok());
  }
  fleet.WaitShardQuiesced(0);
  // Quiesced means shard 0 holds no queued work and owns no open flight:
  // it is now safe to restart the replica processes behind it.
  EXPECT_EQ(fleet.ReplicaStats(0, 0).queued, 0u);
  fleet.RejoinShard(0);
  EXPECT_FALSE(fleet.router().draining(0));
  for (uint64_t i = 200; i < 300; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 8)),
                             ledger.Callback())
                    .ok());
  }
  fleet.Shutdown();

  ledger.ExpectExactlyOneEach(300);
  EXPECT_EQ(ledger.served(), 300u);
  ShardCounters total = fleet.FleetCounters();
  EXPECT_EQ(total.served, 300u);
  // The drain window had live traffic for shard 0's tenants, so some of
  // it must have been diverted to shard 1.
  EXPECT_GT(total.drain_diverts, 0u) << "drain diverted nothing";
}

TEST(FleetRuntimeTest, HedgingFiresAndReconcilesUnderThreads) {
  Backend backend;
  common::ThreadPool pool(4);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  // Linger holds batches open so the hedge deadline can overtake the
  // primary while it is still queued.
  options.core.batcher.max_batch_size = 16;
  options.core.batcher.max_linger_seconds = 0.010;
  options.hedge.enabled = true;
  options.hedge.min_samples = 1u << 30;  // pin the warmup delay all test
  options.hedge.initial_delay_seconds = 0.0005;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();
  EXPECT_DOUBLE_EQ(fleet.HedgeDelay(), 0.0005);

  Ledger ledger;
  const size_t kRequests = 400;
  for (uint64_t i = 0; i < kRequests; ++i) {
    EXPECT_TRUE(fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 10)),
                             ledger.Callback())
                    .ok());
    if (i % 50 == 49) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  fleet.Shutdown();

  ledger.ExpectExactlyOneEach(kRequests);
  ShardCounters total = fleet.FleetCounters();
  EXPECT_EQ(total.served, kRequests) << "hedging duplicated or lost work";
  // A 0.5ms hedge delay against a 10ms linger: hedges must have fired.
  EXPECT_GT(total.hedges_fired, 0u);
  // First-completion-wins bookkeeping closes exactly.
  EXPECT_EQ(total.hedges_fired, total.hedge_wins + total.primary_wins);
  EXPECT_EQ(total.hedges_fired, total.hedges_cancelled);
}

// A hedge win reports the logical latency — fleet admission to the
// hedge's completion — not the hedge copy's own queue-to-serve time,
// which leaves out the hedge delay it waited before launching.
TEST(FleetRuntimeTest, HedgeWinReportsLatencyFromTheLogicalArrival) {
  Backend backend;
  common::ThreadPool pool(2);
  FleetRuntimeOptions options;
  options.shards = 1;
  options.replicas_per_shard = 2;
  // A lone request lingers for a pair it will not get: the primary stays
  // queued on its replica for the whole test.
  options.core.batcher.max_batch_size = 2;
  options.core.batcher.max_linger_seconds = 30.0;
  options.hedge.enabled = true;
  options.hedge.min_samples = 1u << 30;  // pin the warmup delay all test
  // Long enough that the partner below is served before its own hedge
  // could fire into the lingering primary's batch.
  options.hedge.initial_delay_seconds = 0.200;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();

  const serve::Request slow = MakeRequest(1, "slow");
  const size_t primary = fleet.router().Route(slow.tenant, slow.id).replica;
  // A partner routed to the replica the hedge will land on.
  uint64_t partner_id = 2;
  while (fleet.router().Route("partner", partner_id).replica == primary) {
    ++partner_id;
  }

  std::mutex mu;
  std::condition_variable cv;
  std::optional<serve::Response> won;
  ASSERT_TRUE(fleet
                  .Submit(slow,
                          [&](const serve::Response& response) {
                            std::lock_guard<std::mutex> lock(mu);
                            won = response;
                            cv.notify_all();
                          })
                  .ok());
  while (fleet.FleetCounters().hedges_fired == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The partner completes the hedge's batch, so the hedge serves at once
  // while the primary still lingers.
  Ledger ledger;
  ASSERT_TRUE(
      fleet.Submit(MakeRequest(partner_id, "partner"), ledger.Callback())
          .ok());
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return won.has_value(); });
  }
  fleet.Shutdown();

  ASSERT_EQ(won->outcome, serve::Outcome::kServed);
  EXPECT_EQ(fleet.FleetCounters().hedge_wins, 1u);
  EXPECT_GE(won->latency_seconds, fleet.HedgeDelay())
      << "hedge win reported the copy's latency, not the request's";
}

TEST(FleetRuntimeTest, GaugesExposePerReplicaAndPerShardSeries) {
  Backend backend;
  common::ThreadPool pool(2);
  FleetRuntimeOptions options;
  options.shards = 2;
  options.replicas_per_shard = 2;
  FleetRuntime fleet(options, &pool);
  fleet.RegisterBackend("m", &backend.server);
  fleet.Start();
  Ledger ledger;
  for (uint64_t i = 0; i < 40; ++i) {
    EXPECT_TRUE(
        fleet.Submit(MakeRequest(i, "t" + std::to_string(i % 4)),
                     ledger.Callback())
            .ok());
  }
  telemetry::TelemetryStore store;
  fleet.SampleGauges(&store);
  fleet.Shutdown();

  // Per-replica serving gauges are scoped by {shard, replica} labels; the
  // legacy unscoped "serve.queue_depth" series must NOT appear.
  EXPECT_EQ(store.Select("fleet.serve.queue_depth", {}).size(), 4u)
      << "expected one queue_depth series per replica";
  EXPECT_EQ(store.Select("serve.queue_depth", {}).size(), 0u)
      << "unscoped series leaked";
  EXPECT_EQ(store.Select("fleet.served_total", {}).size(), 2u)
      << "expected one served_total series per shard";
  EXPECT_EQ(
      store.Select("fleet.serve.queue_depth", {{"shard", "1"}}).size(), 2u)
      << "label selector should narrow to one shard's replicas";
}

}  // namespace
}  // namespace ads::fleet
