#include "fleet/ring.h"

#include <algorithm>
#include <charconv>
#include <limits>

#include "common/logging.h"

namespace ads::fleet {

HashRing::HashRing(RingOptions options) : options_(options) {
  ADS_CHECK(options_.vnodes_per_shard >= 1) << "ring needs at least 1 vnode";
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over the seed bytes: cheap, stable, and platform-independent (the
// same idiom as the autonomy tenant slice).
uint64_t FnvSeed(uint64_t seed) {
  uint64_t h = 14695981039346656037ull;
  for (int shift = 0; shift < 64; shift += 8) {
    h ^= (seed >> shift) & 0xffull;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvBytes(uint64_t h, const char* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

// Raw FNV-1a has no avalanche on the tail bytes: keys that differ only in
// a trailing counter ("tenant-0".."tenant-39") land within a few thousand
// of each other and would collapse onto one ring arc. The murmur3
// finalizer mixes every input bit into every output bit.
uint64_t Finalize(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

}  // namespace

uint64_t HashRing::HashKey(uint64_t seed, const std::string& key) {
  return Finalize(FnvBytes(FnvSeed(seed), key.data(), key.size()));
}

uint64_t HashRing::HashKeyWithId(uint64_t seed, const std::string& key,
                                 uint64_t id) {
  // std::to_chars writes the same decimal digits as std::to_string; the
  // buffer holds the 20 digits of UINT64_MAX.
  char digits[std::numeric_limits<uint64_t>::digits10 + 1];
  const char* end = std::to_chars(digits, digits + sizeof(digits), id).ptr;
  uint64_t h = FnvBytes(FnvSeed(seed), key.data(), key.size());
  h = FnvBytes(h, "#", 1);
  return Finalize(FnvBytes(h, digits, static_cast<size_t>(end - digits)));
}

void HashRing::AddShard(ShardId shard) {
  if (!shards_.insert(shard).second) return;
  ring_.reserve(ring_.size() + options_.vnodes_per_shard);
  for (size_t v = 0; v < options_.vnodes_per_shard; ++v) {
    const std::string key =
        "s" + std::to_string(shard) + "#" + std::to_string(v);
    ring_.emplace_back(HashKey(options_.seed, key), shard);
  }
  std::sort(ring_.begin(), ring_.end());
}

void HashRing::RemoveShard(ShardId shard) {
  if (shards_.erase(shard) == 0) return;
  ring_.erase(std::remove_if(ring_.begin(), ring_.end(),
                             [shard](const std::pair<uint64_t, ShardId>& p) {
                               return p.second == shard;
                             }),
              ring_.end());
}

std::vector<ShardId> HashRing::Shards() const {
  return std::vector<ShardId>(shards_.begin(), shards_.end());
}

size_t HashRing::FirstAtOrAfter(uint64_t point) const {
  return static_cast<size_t>(
      std::lower_bound(ring_.begin(), ring_.end(), point,
                       [](const std::pair<uint64_t, ShardId>& vnode,
                          uint64_t p) { return vnode.first < p; }) -
      ring_.begin());
}

ShardId HashRing::ShardFor(const std::string& tenant) const {
  ADS_CHECK(!ring_.empty()) << "empty hash ring";
  const size_t start = FirstAtOrAfter(HashKey(options_.seed, tenant));
  return ring_[start % ring_.size()].second;  // past the last vnode: wrap
}

std::vector<ShardId> HashRing::PreferenceOrder(const std::string& tenant,
                                               size_t k) const {
  ADS_CHECK(!ring_.empty()) << "empty hash ring";
  std::vector<ShardId> order;
  const size_t want = std::min(k, shards_.size());
  if (want == 0) return order;
  const size_t start = FirstAtOrAfter(HashKey(options_.seed, tenant));
  for (size_t step = 0; step < ring_.size() && order.size() < want; ++step) {
    ShardId shard = ring_[(start + step) % ring_.size()].second;
    if (std::find(order.begin(), order.end(), shard) == order.end()) {
      order.push_back(shard);
    }
  }
  return order;
}

}  // namespace ads::fleet
