#include "fleet/ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace ads::fleet {
namespace {

std::vector<std::string> Tenants(size_t n) {
  std::vector<std::string> tenants;
  tenants.reserve(n);
  for (size_t i = 0; i < n; ++i) tenants.push_back("t" + std::to_string(i));
  return tenants;
}

HashRing RingWithShards(size_t shards, RingOptions options = RingOptions()) {
  HashRing ring(options);
  for (ShardId s = 0; s < shards; ++s) ring.AddShard(s);
  return ring;
}

TEST(HashRingTest, PlacementIsDeterministicUnderFixedSeed) {
  HashRing a = RingWithShards(4);
  HashRing b = RingWithShards(4);
  for (const std::string& tenant : Tenants(500)) {
    EXPECT_EQ(a.ShardFor(tenant), b.ShardFor(tenant)) << tenant;
    EXPECT_EQ(a.PreferenceOrder(tenant, 4), b.PreferenceOrder(tenant, 4))
        << tenant;
  }
}

TEST(HashRingTest, SeedChangesPlacement) {
  HashRing a = RingWithShards(4);
  RingOptions other;
  other.seed = 0xfeedbeef;
  HashRing b = RingWithShards(4, other);
  size_t moved = 0;
  for (const std::string& tenant : Tenants(500)) {
    if (a.ShardFor(tenant) != b.ShardFor(tenant)) ++moved;
  }
  // Different seed, essentially independent placement.
  EXPECT_GT(moved, 250u);
}

TEST(HashRingTest, SpreadsTenantsAcrossShards) {
  HashRing ring = RingWithShards(4);
  std::map<ShardId, size_t> histogram;
  const size_t kTenants = 2000;
  for (const std::string& tenant : Tenants(kTenants)) {
    histogram[ring.ShardFor(tenant)] += 1;
  }
  ASSERT_EQ(histogram.size(), 4u) << "some shard got no tenants";
  for (const auto& [shard, count] : histogram) {
    // Perfect balance would be 500 per shard; 64 vnodes keeps every
    // shard within a loose 2x band.
    EXPECT_GT(count, kTenants / 8) << "shard " << shard << " starved";
    EXPECT_LT(count, kTenants / 2) << "shard " << shard << " overloaded";
  }
}

TEST(HashRingTest, GrowingFourToFiveMovesAboutOneFifthAndOnlyToNewShard) {
  HashRing four = RingWithShards(4);
  HashRing five = RingWithShards(5);
  const size_t kTenants = 2000;
  size_t moved = 0;
  for (const std::string& tenant : Tenants(kTenants)) {
    const ShardId before = four.ShardFor(tenant);
    const ShardId after = five.ShardFor(tenant);
    if (before != after) {
      ++moved;
      // The consistent-hash guarantee: every move is a capture by the
      // new shard, never a reshuffle between survivors.
      EXPECT_EQ(after, 4u) << tenant << " moved " << before << "->" << after;
    }
  }
  // Expectation is 1/5 of tenants; allow a generous band around it.
  EXPECT_GT(moved, kTenants / 10);
  EXPECT_LT(moved, (kTenants * 3) / 10)
      << "growing 4->5 moved " << moved << " of " << kTenants
      << " tenants; consistent hashing should bound movement near 1/5";
}

TEST(HashRingTest, IncrementalAddMatchesFreshRing) {
  HashRing grown = RingWithShards(4);
  grown.AddShard(4);
  HashRing fresh = RingWithShards(5);
  for (const std::string& tenant : Tenants(500)) {
    EXPECT_EQ(grown.ShardFor(tenant), fresh.ShardFor(tenant)) << tenant;
  }
}

TEST(HashRingTest, RemoveShardOnlyMovesItsTenants) {
  HashRing five = RingWithShards(5);
  HashRing four = RingWithShards(5);
  four.RemoveShard(2);
  EXPECT_FALSE(four.Contains(2));
  for (const std::string& tenant : Tenants(1000)) {
    const ShardId before = five.ShardFor(tenant);
    const ShardId after = four.ShardFor(tenant);
    if (before != 2) {
      EXPECT_EQ(before, after) << tenant << " moved without cause";
    } else {
      EXPECT_NE(after, 2u) << tenant << " still on the removed shard";
    }
  }
}

TEST(HashRingTest, PreferenceOrderStartsAtHomeAndCoversDistinctShards) {
  HashRing ring = RingWithShards(5);
  for (const std::string& tenant : Tenants(200)) {
    std::vector<ShardId> order = ring.PreferenceOrder(tenant, 5);
    ASSERT_EQ(order.size(), 5u);
    EXPECT_EQ(order[0], ring.ShardFor(tenant));
    std::set<ShardId> distinct(order.begin(), order.end());
    EXPECT_EQ(distinct.size(), 5u) << "duplicate shard in fallback order";
  }
}

TEST(HashRingTest, ShardForIsPreferenceHeadAcrossMembershipChanges) {
  // FleetRouter::Route takes the home shard from ShardFor and builds the
  // preference order only to divert, so the two must agree on every ring
  // the router can hold: grown, shrunk, and regrown.
  HashRing ring = RingWithShards(4);
  const std::vector<std::string> tenants = Tenants(2000);
  auto expect_agree = [&](const char* stage) {
    for (const std::string& tenant : tenants) {
      for (size_t k = 1; k <= ring.shard_count(); ++k) {
        ASSERT_EQ(ring.ShardFor(tenant), ring.PreferenceOrder(tenant, k)[0])
            << stage << ", " << tenant << ", k=" << k;
      }
    }
  };
  expect_agree("4 shards");
  ring.AddShard(4);
  expect_agree("after AddShard(4)");
  ring.RemoveShard(1);
  expect_agree("after RemoveShard(1)");
  ring.RemoveShard(0);
  ring.AddShard(7);
  expect_agree("after RemoveShard(0), AddShard(7)");
}

TEST(HashRingTest, FallbackOrderIsStickyUnderGrowth) {
  // Growing the ring must not reshuffle the relative order of surviving
  // shards in a tenant's preference list — the same clockwise walk just
  // gains insertions of the new shard.
  HashRing four = RingWithShards(4);
  HashRing five = RingWithShards(5);
  for (const std::string& tenant : Tenants(300)) {
    std::vector<ShardId> before = four.PreferenceOrder(tenant, 4);
    std::vector<ShardId> after = five.PreferenceOrder(tenant, 5);
    std::vector<ShardId> after_without_new;
    for (ShardId s : after) {
      if (s != 4) after_without_new.push_back(s);
    }
    EXPECT_EQ(before, after_without_new) << tenant;
  }
}

TEST(HashRingTest, HashKeyIsStable) {
  // Pin the FNV-1a construction: a silent hash change would remap every
  // tenant in every deployment.
  EXPECT_EQ(HashRing::HashKey(0x5eed, "tenant-a"),
            HashRing::HashKey(0x5eed, "tenant-a"));
  EXPECT_NE(HashRing::HashKey(0x5eed, "tenant-a"),
            HashRing::HashKey(0x5eed, "tenant-b"));
  EXPECT_NE(HashRing::HashKey(1, "tenant-a"),
            HashRing::HashKey(2, "tenant-a"));
}

TEST(HashRingTest, HashKeyIsPinnedAcrossReleases) {
  // Literal values: a refactor of the hash must reproduce them exactly.
  EXPECT_EQ(HashRing::HashKey(0x5eed, "tenant-a"), 5197731771518011672ull);
  EXPECT_EQ(HashRing::HashKeyWithId(0x5eed ^ 0x9e3779b97f4a7c15ull,
                                    "tenant-a", UINT64_MAX),
            14082280075261536125ull);
}

TEST(HashRingTest, HashKeyWithIdMatchesTheBuiltString) {
  const std::vector<uint64_t> ids = {
      0, 1, 9, 10, 1234567890, UINT64_MAX - 1, UINT64_MAX};
  const std::vector<uint64_t> seeds = {
      0, 0x5eed, 0x5eed ^ 0x9e3779b97f4a7c15ull, UINT64_MAX};
  // Every tenant-name length from empty to 40, with varied bytes
  // (including '#', digits and high-bit chars).
  std::string tenant;
  for (size_t len = 0; len <= 40; ++len) {
    for (uint64_t seed : seeds) {
      for (uint64_t id : ids) {
        EXPECT_EQ(HashRing::HashKeyWithId(seed, tenant, id),
                  HashRing::HashKey(seed, tenant + "#" + std::to_string(id)))
            << "len " << len << " seed " << seed << " id " << id;
      }
    }
    tenant.push_back(static_cast<char>("ab#7\xe9Z"[len % 6]));
  }
}

/// Brute-force reference: rebuild the vnode list from the public hash,
/// find the start with a linear scan, and walk clockwise.
std::vector<ShardId> LinearScanPreferenceOrder(
    const std::vector<std::pair<uint64_t, ShardId>>& vnodes, uint64_t point,
    size_t want) {
  size_t start = 0;
  while (start < vnodes.size() && vnodes[start].first < point) ++start;
  std::vector<ShardId> order;
  for (size_t step = 0; step < vnodes.size() && order.size() < want; ++step) {
    const ShardId shard = vnodes[(start + step) % vnodes.size()].second;
    if (std::find(order.begin(), order.end(), shard) == order.end()) {
      order.push_back(shard);
    }
  }
  return order;
}

TEST(HashRingTest, PreferenceOrderMatchesLinearScanReference) {
  const RingOptions options;
  const std::vector<std::string> tenants = Tenants(10000);
  for (size_t shards = 1; shards <= 16; ++shards) {
    HashRing ring = RingWithShards(shards, options);
    std::vector<std::pair<uint64_t, ShardId>> vnodes;
    for (ShardId s = 0; s < shards; ++s) {
      for (size_t v = 0; v < options.vnodes_per_shard; ++v) {
        const std::string key =
            "s" + std::to_string(s) + "#" + std::to_string(v);
        vnodes.emplace_back(HashRing::HashKey(options.seed, key), s);
      }
    }
    std::sort(vnodes.begin(), vnodes.end());
    size_t wrapped = 0;
    for (const std::string& tenant : tenants) {
      const uint64_t point = HashRing::HashKey(options.seed, tenant);
      if (point > vnodes.back().first) ++wrapped;
      const std::vector<ShardId> want =
          LinearScanPreferenceOrder(vnodes, point, shards);
      ASSERT_EQ(ring.PreferenceOrder(tenant, shards), want)
          << shards << " shards, " << tenant;
      ASSERT_EQ(ring.ShardFor(tenant), want[0]) << tenant;
      const size_t two = std::min<size_t>(2, shards);
      ASSERT_EQ(ring.PreferenceOrder(tenant, 2),
                std::vector<ShardId>(want.begin(), want.begin() + two));
    }
    // Some tenant hashes past the last vnode and must wrap to the first.
    EXPECT_GT(wrapped, 0u) << shards << " shards";
  }
}

}  // namespace
}  // namespace ads::fleet
