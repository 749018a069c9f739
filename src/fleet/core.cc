#include "fleet/core.h"

#include <utility>

#include "common/logging.h"

namespace ads::fleet {

namespace {

bool& Done(FleetCore::Flight& flight, FleetCore::Copy copy) {
  return copy == FleetCore::Copy::kPrimary ? flight.primary_done
                                           : flight.hedge_done;
}

}  // namespace

serve::Response FailureResponse(uint64_t id, serve::Outcome outcome) {
  serve::Response response;
  response.id = id;
  response.outcome = outcome;
  return response;
}

FleetCore::FleetCore(size_t shards, size_t replicas_per_shard,
                     RouterOptions router, HedgeOptions hedge)
    : router_(shards, replicas_per_shard, router),
      hedge_(hedge),
      counters_(shards) {}

RouteDecision FleetCore::Route(const std::string& tenant, uint64_t id) {
  const RouteDecision decision = router_.Route(tenant, id);
  counters_[decision.shard].submitted += 1;
  if (decision.reason == RouteReason::kDrainDivert) {
    counters_[decision.home_shard].drain_diverts += 1;
  } else if (decision.reason == RouteReason::kLoadDivert) {
    counters_[decision.home_shard].load_diverts += 1;
  }
  return decision;
}

void FleetCore::Pin(serve::Request* request,
                    const autonomy::ResilientModelServer& backend) const {
  if (request->pinned_version == 0 && version_router_ != nullptr) {
    request->pinned_version =
        version_router_->Route(request->model, request->tenant);
  }
  if (request->pinned_version == 0) {
    request->pinned_version = backend.CurrentDeployedVersion();
  }
}

FleetCore::Flight& FleetCore::Open(uint64_t id, const RouteDecision& decision,
                                   double arrival, serve::Request prototype) {
  auto [it, inserted] = flights_.try_emplace(id);
  ADS_CHECK(inserted) << "duplicate request id " << id;
  Flight& flight = it->second;
  flight.prototype = std::move(prototype);
  flight.arrival = arrival;
  flight.owner = decision.shard;
  flight.primary_replica = decision.replica;
  return flight;
}

bool FleetCore::Owns(ShardId shard) const {
  for (const auto& [id, flight] : flights_) {
    if (flight.owner == shard) return true;
  }
  return false;
}

bool FleetCore::FireHedge(Flight& flight) {
  if (flight.resolved || flight.hedge_fired || flight.primary_done) {
    return false;
  }
  if (router_.draining(flight.owner)) return false;
  flight.hedge_fired = true;
  flight.hedge_shard = flight.owner;
  flight.hedge_replica =
      (flight.primary_replica + 1) % router_.replicas_per_shard();
  flight.hedge_home = flight.owner;
  counters_[flight.hedge_home].hedges_fired += 1;
  return true;
}

FleetCore::Copy FleetCore::Locate(const Flight& flight, ShardId shard,
                                  size_t replica) const {
  if (flight.owner == shard && flight.primary_replica == replica) {
    return Copy::kPrimary;
  }
  ADS_CHECK(flight.hedge_fired && flight.hedge_shard == shard &&
            flight.hedge_replica == replica)
      << "no copy of request " << flight.prototype.id << " on shard "
      << shard << " replica " << replica;
  return Copy::kHedge;
}

std::optional<double> FleetCore::CopyServed(Flight& flight, Copy copy,
                                            double now) {
  Done(flight, copy) = true;
  if (flight.resolved) return std::nullopt;
  flight.resolved = true;
  counters_[flight.owner].served += 1;
  const double latency = now - flight.arrival;
  hedge_.Observe(latency);
  if (flight.hedge_fired) {
    ShardCounters& c = counters_[flight.hedge_home];
    (copy == Copy::kPrimary ? c.primary_wins : c.hedge_wins) += 1;
  }
  return latency;
}

void FleetCore::CopyFailed(Flight& flight, Copy copy, serve::Outcome outcome) {
  ADS_CHECK(!Done(flight, copy))
      << "copy of request " << flight.prototype.id << " failed twice";
  Done(flight, copy) = true;
  if (copy == Copy::kPrimary && !flight.resolved) {
    flight.have_failure = true;
    flight.failure = outcome;
  }
}

void FleetCore::CopyDropped(Flight& flight, Copy copy) {
  ADS_CHECK(flight.resolved) << "dropped a copy of an unresolved request";
  Done(flight, copy) = true;
}

void FleetCore::Reroute(Flight& flight, Copy copy, ShardId to) {
  if (copy == Copy::kHedge) {
    flight.hedge_shard = to;
    return;
  }
  counters_[flight.owner].rerouted_out += 1;
  counters_[to].rerouted_in += 1;
  flight.owner = to;
}

bool FleetCore::Finalize(Flight& flight) {
  if (!flight.primary_done || (flight.hedge_fired && !flight.hedge_done)) {
    return false;
  }
  if (!flight.resolved) {
    ADS_CHECK(flight.have_failure)
        << "finalizing request " << flight.prototype.id << " with no outcome";
    CountFailure(flight.owner, flight.failure);
  }
  if (flight.hedge_fired) {
    // Exactly one loser per fired hedge, whatever its fate (cancelled at
    // completion, shed, rejected at hedge admission, or dropped at a
    // drain); a race both copies lost has no winner to count.
    counters_[flight.hedge_home].hedges_cancelled += 1;
    if (!flight.resolved) counters_[flight.hedge_home].hedges_failed += 1;
  }
  return true;
}

void FleetCore::CountFailure(ShardId shard, serve::Outcome outcome) {
  ShardCounters& c = counters_[shard];
  switch (outcome) {
    case serve::Outcome::kRejectedRateLimit:
      c.rejected_rate_limit += 1;
      break;
    case serve::Outcome::kRejectedCapacity:
      c.rejected_capacity += 1;
      break;
    case serve::Outcome::kRejectedDeadline:
      c.rejected_deadline += 1;
      break;
    case serve::Outcome::kShedCapacity:
      c.shed_capacity += 1;
      break;
    case serve::Outcome::kShedDeadline:
      c.shed_deadline += 1;
      break;
    default:
      ADS_CHECK(false) << "unexpected terminal outcome";
  }
}

void FleetCore::CheckInvariants() const {
  ADS_CHECK(flights_.empty())
      << "fleet closed with " << flights_.size() << " requests unresolved";
  for (ShardId shard = 0; shard < counters_.size(); ++shard) {
    const ShardCounters& c = counters_[shard];
    ADS_CHECK(c.submitted == c.accepted + c.Rejected())
        << "shard " << shard << ": admission not total";
    ADS_CHECK(c.accepted + c.rerouted_in == c.Finished() + c.rerouted_out)
        << "shard " << shard << ": ownership ledger out of balance";
    ADS_CHECK(c.hedges_fired ==
              c.hedge_wins + c.primary_wins + c.hedges_failed)
        << "shard " << shard << ": a fired hedge has no outcome";
    ADS_CHECK(c.hedges_fired == c.hedges_cancelled)
        << "shard " << shard << ": a fired hedge has no cancelled loser";
  }
  const ShardCounters fleet = Aggregate(counters_);
  ADS_CHECK(fleet.accepted == fleet.served + fleet.Shed())
      << "fleet ledger out of balance (reroutes double-counted?)";
}

}  // namespace ads::fleet
