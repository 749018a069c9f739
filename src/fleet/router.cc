#include "fleet/router.h"

#include "common/logging.h"

namespace ads::fleet {

const char* RouteReasonName(RouteReason reason) {
  switch (reason) {
    case RouteReason::kHome:
      return "home";
    case RouteReason::kDrainDivert:
      return "drain_divert";
    case RouteReason::kLoadDivert:
      return "load_divert";
  }
  return "unknown";
}

FleetRouter::FleetRouter(size_t shards, size_t replicas_per_shard,
                         RouterOptions options)
    : shard_count_(shards),
      replicas_per_shard_(replicas_per_shard),
      options_(options),
      ring_(options.ring),
      draining_(shards, 0),
      load_(shards) {
  ADS_CHECK(shards >= 1) << "fleet needs at least one shard";
  ADS_CHECK(replicas_per_shard >= 1) << "shard needs at least one replica";
  for (ShardId s = 0; s < shards; ++s) ring_.AddShard(s);
}

RouteDecision FleetRouter::Route(const std::string& tenant,
                                 uint64_t request_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  RouteDecision decision;
  const ShardId home = ring_.ShardFor(tenant);
  decision.home_shard = home;
  decision.shard = home;
  decision.reason = RouteReason::kHome;
  const bool home_draining = draining_[home] != 0;
  const bool home_overloaded =
      static_cast<double>(load_[home].queue_depth) >
      options_.overload_queue_depth;
  if (home_draining || home_overloaded) {
    // Only a divert walks the ring past the home shard (prefs[0] == home).
    const std::vector<ShardId> prefs =
        ring_.PreferenceOrder(tenant, shard_count_);
    for (size_t i = 1; i < prefs.size(); ++i) {
      const ShardId candidate = prefs[i];
      if (draining_[candidate] != 0) continue;
      if (home_overloaded && !home_draining &&
          static_cast<double>(load_[candidate].queue_depth) >
              options_.divert_target_depth) {
        continue;  // don't shuffle load onto an equally drowning shard
      }
      decision.shard = candidate;
      decision.reason = home_draining ? RouteReason::kDrainDivert
                                      : RouteReason::kLoadDivert;
      break;
    }
  }
  // Replica spread: hash (tenant, id) so one tenant's requests fan over
  // the replica group instead of hot-spotting replica 0, while staying a
  // pure function of the request.
  decision.replica =
      replicas_per_shard_ == 1
          ? 0
          : static_cast<size_t>(HashRing::HashKeyWithId(
                options_.ring.seed ^ 0x9e3779b97f4a7c15ull, tenant,
                request_id)) %
                replicas_per_shard_;
  return decision;
}

void FleetRouter::DrainShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(shard < shard_count_) << "drain of unknown shard " << shard;
  draining_[shard] = 1;
}

void FleetRouter::RejoinShard(ShardId shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(shard < shard_count_) << "rejoin of unknown shard " << shard;
  draining_[shard] = 0;
}

bool FleetRouter::draining(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(shard < shard_count_) << "unknown shard " << shard;
  return draining_[shard] != 0;
}

void FleetRouter::UpdateLoad(ShardId shard, const ShardLoad& load) {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(shard < shard_count_) << "load update for unknown shard " << shard;
  load_[shard] = load;
}

ShardLoad FleetRouter::load(ShardId shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  ADS_CHECK(shard < shard_count_) << "unknown shard " << shard;
  return load_[shard];
}

ShardId FleetRouter::RerouteTarget(const std::string& tenant,
                                   ShardId exclude) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ShardId> prefs = ring_.PreferenceOrder(tenant, shard_count_);
  for (ShardId candidate : prefs) {
    if (candidate == exclude) continue;
    if (draining_[candidate] != 0) continue;
    return candidate;
  }
  return exclude;
}

}  // namespace ads::fleet
