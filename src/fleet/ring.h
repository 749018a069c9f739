#ifndef ADS_FLEET_RING_H_
#define ADS_FLEET_RING_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "fleet/types.h"

namespace ads::fleet {

struct RingOptions {
  /// Virtual nodes per shard: more vnodes smooth the tenant distribution
  /// and tighten the bounded-movement guarantee at O(vnodes * shards)
  /// ring memory.
  size_t vnodes_per_shard = 64;
  /// Seed folded into every vnode and tenant hash: a fixed seed fixes the
  /// whole placement, across runs, thread counts, and machines.
  uint64_t seed = 0x5eed;
};

/// Seeded consistent-hash ring placing tenants on shards.
///
/// Each shard contributes vnodes_per_shard points on a 64-bit ring (FNV-1a
/// of seed ⊕ "shard#vnode"); a tenant maps to the shard owning the first
/// point at or after its own hash. Properties the fleet relies on, and the
/// ring tests pin:
///
///  - Determinism: placement is a pure function of (seed, shard set,
///    tenant) — no global state, no platform-dependent hashing.
///  - Bounded movement: growing N → N+1 shards remaps only the tenants
///    whose arc the new shard's vnodes capture, ~1/(N+1) of them in
///    expectation; every tenant that moves, moves TO the new shard.
///  - Stable fallbacks: PreferenceOrder walks the ring clockwise, so a
///    tenant's reroute target under drain/overload is as sticky as its
///    home placement.
///
/// Not internally synchronized — FleetRouter wraps it with a mutex for
/// the threaded runtime.
class HashRing {
 public:
  explicit HashRing(RingOptions options = RingOptions());

  void AddShard(ShardId shard);
  /// Removes a shard and its vnodes. No-op if absent.
  void RemoveShard(ShardId shard);
  bool Contains(ShardId shard) const { return shards_.count(shard) > 0; }
  size_t shard_count() const { return shards_.size(); }

  /// Home shard for a tenant. Requires a non-empty ring.
  ShardId ShardFor(const std::string& tenant) const;

  /// Up to `k` distinct shards in ring order starting at the tenant's
  /// point: element 0 is the home shard, element 1 the first fallback
  /// (the drain/overload reroute target), and so on.
  std::vector<ShardId> PreferenceOrder(const std::string& tenant,
                                       size_t k) const;

  /// The seeded FNV-1a point hash used for both vnodes and tenants;
  /// exposed so tests and the router's replica spread share one stable
  /// hash.
  static uint64_t HashKey(uint64_t seed, const std::string& key);
  /// HashKey(seed, key + "#" + std::to_string(id)), streamed through the
  /// same FNV-1a bytes without building the string: the router's
  /// per-request replica spread.
  static uint64_t HashKeyWithId(uint64_t seed, const std::string& key,
                                uint64_t id);

 private:
  /// Index of the first vnode whose point is >= `point` (binary search);
  /// ring_.size() when `point` lies past the last vnode.
  size_t FirstAtOrAfter(uint64_t point) const;

  RingOptions options_;
  /// Sorted (point, shard); ties break by shard id so a hash collision
  /// cannot make placement order-dependent.
  std::vector<std::pair<uint64_t, ShardId>> ring_;
  std::set<ShardId> shards_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_RING_H_
