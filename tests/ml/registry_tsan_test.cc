// Thread-safety test for ModelRegistry: a controller thread churns
// register / deploy / rollback / flight transitions while reader threads
// hammer the serving read path (ResilientModelServer::PredictBatch and
// PredictVersion over a shared registry). Built into the race-check CI
// job, so TSan sees every lock the registry takes; the functional
// assertions double as a seatbelt for plain builds.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "autonomy/serving.h"
#include "common/matrix.h"
#include "ml/linear.h"
#include "ml/registry.h"

namespace ads::ml {
namespace {

std::string BlobWithSlope(double slope) {
  LinearRegressor m;
  m.SetCoefficients(0.0, {slope});
  return m.Serialize();
}

TEST(RegistryTsanTest, ConcurrentPromoteRollbackVsServingReaders) {
  ModelRegistry registry;
  registry.Register("m", BlobWithSlope(1.0));
  registry.Register("m", BlobWithSlope(2.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  ASSERT_TRUE(registry.Deploy("m", 2).ok());

  constexpr int kReaders = 4;
  constexpr int kReaderIters = 300;
  std::atomic<int> readers_done{0};
  std::atomic<uint64_t> served{0};

  // Controller: version churn — registers fresh versions, flips the
  // deployed pointer back and forth, starts and ends flights. It keeps
  // churning until every reader has finished its fixed iteration budget,
  // so the mutation window is guaranteed to overlap the read loops.
  std::thread controller([&]() {
    for (int i = 0;
         i < 400 || readers_done.load(std::memory_order_acquire) < kReaders;
         ++i) {
      const uint32_t v =
          registry.Register("m", BlobWithSlope(static_cast<double>(i % 7)));
      ASSERT_TRUE(registry.Deploy("m", v).ok());
      ASSERT_TRUE(registry.Rollback("m").ok());
      if (registry.StartFlight("m", v).ok()) {
        ASSERT_TRUE(registry.EndFlight("m", i % 2 == 0).ok());
      }
      (void)registry.DeployedModel("m");
    }
  });

  // Readers: each owns its ResilientModelServer (the server itself is
  // not thread-safe) but all share the registry — the contract under
  // test. EXPECT (not ASSERT) so an early failure still reaches the
  // readers_done increment the controller's exit condition needs.
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&registry, &readers_done, &served, r]() {
      autonomy::ResilientModelServer server(
          &registry, "m", [](const std::vector<double>&) { return -1.0; });
      common::Matrix features(8, 1);
      for (size_t i = 0; i < 8; ++i) features.At(i, 0) = 1.0;
      std::vector<autonomy::ResilientModelServer::ServeResult> results;
      double now = static_cast<double>(r);
      for (int iter = 0; iter < kReaderIters; ++iter) {
        server.PredictBatch(features, now, &results);
        EXPECT_EQ(results.size(), 8u);
        for (const auto& result : results) {
          // A deployed tier answer always comes from a fully registered
          // version: slopes are in [0, 7), so values are in [0, 7).
          if (result.tier ==
              autonomy::ResilientModelServer::Tier::kDeployed) {
            EXPECT_GE(result.value, 0.0);
            EXPECT_LT(result.value, 7.0);
            EXPECT_NE(result.version, 0u);
          }
        }
        // The version-pinned read path shares the same registry locks.
        auto pinned = server.PredictVersion(1, {1.0}, now);
        EXPECT_EQ(pinned.version, 1u);
        EXPECT_DOUBLE_EQ(pinned.value, 1.0);
        served.fetch_add(1, std::memory_order_relaxed);
        now += 1.0;
      }
      readers_done.fetch_add(1, std::memory_order_release);
    });
  }

  controller.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(served.load(), static_cast<uint64_t>(kReaders) * kReaderIters);
  // The registry ends in a consistent state: some version deployed, no
  // flight left dangling.
  EXPECT_NE(registry.DeployedVersion("m"), 0u);
  EXPECT_FALSE(registry.FlightActive("m"));
}

TEST(RegistryTsanTest, SnapshotCopyUnderConcurrentWrites) {
  ModelRegistry registry;
  registry.Register("m", BlobWithSlope(1.0));
  ASSERT_TRUE(registry.Deploy("m", 1).ok());
  std::atomic<bool> stop{false};
  std::thread writer([&]() {
    for (int i = 0; i < 200; ++i) {
      registry.Register("m", BlobWithSlope(2.0));
    }
    stop.store(true, std::memory_order_release);
  });
  while (!stop.load(std::memory_order_acquire)) {
    ModelRegistry copy = registry;  // snapshot under the source's lock
    EXPECT_EQ(copy.DeployedVersion("m"), 1u);
    EXPECT_GE(copy.Versions("m").size(), 1u);
  }
  writer.join();
}

}  // namespace
}  // namespace ads::ml
