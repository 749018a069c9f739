// Drives FleetCore directly through every ordering of copy events a
// hedged, rerouted request can see, and checks the ShardCounters ledger
// (CheckInvariants: admission is total, ownership balances, every fired
// hedge has one outcome and one cancelled loser) after each.

#include "fleet/core.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "serve/types.h"

namespace ads::fleet {
namespace {

using Copy = FleetCore::Copy;

constexpr size_t kShards = 3;
constexpr size_t kReplicas = 2;

class FleetCoreTest : public ::testing::Test {
 protected:
  FleetCoreTest() : core_(kShards, kReplicas, RouterOptions(), Hedging()) {}

  static HedgeOptions Hedging() {
    HedgeOptions options;
    options.enabled = true;
    return options;
  }

  /// Routes, admits and opens request `id` at `now`, as both fleet runtimes do.
  FleetCore::Flight& Admit(uint64_t id, double now) {
    serve::Request request;
    request.id = id;
    request.model = "m";
    request.tenant = "tenant-" + std::to_string(id);
    const RouteDecision decision = core_.Route(request.tenant, id);
    core_.Accept(decision.shard);
    return core_.Open(id, decision, now, request);
  }

  /// Finalizes and erases the flight when its last copy is done.
  bool Close(uint64_t id) {
    auto it = core_.Find(id);
    EXPECT_NE(it, core_.end());
    if (!core_.Finalize(it->second)) return false;
    core_.Erase(it);
    return true;
  }

  ShardCounters Total() const { return Aggregate(core_.counters()); }

  /// Some shard other than `shard`.
  static ShardId Other(ShardId shard) { return (shard + 1) % kShards; }

  FleetCore core_;
};

TEST_F(FleetCoreTest, PrimaryServedFirstCancelsTheHedge) {
  FleetCore::Flight& f = Admit(1, 0.0);
  ASSERT_TRUE(core_.FireHedge(f));
  EXPECT_EQ(f.hedge_shard, f.owner);
  EXPECT_EQ(f.hedge_replica, (f.primary_replica + 1) % kReplicas);

  const std::optional<double> won = core_.CopyServed(f, Copy::kPrimary, 2.0);
  ASSERT_TRUE(won.has_value());
  EXPECT_DOUBLE_EQ(*won, 2.0);
  EXPECT_FALSE(Close(1)) << "closed with the hedge still out";
  EXPECT_FALSE(core_.CopyServed(f, Copy::kHedge, 3.0).has_value());
  EXPECT_TRUE(Close(1));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.served, 1u);
  EXPECT_EQ(c.primary_wins, 1u);
  EXPECT_EQ(c.hedge_wins, 0u);
  EXPECT_EQ(c.hedges_cancelled, 1u);
  EXPECT_EQ(core_.hedge_policy().samples(), 1u) << "the loser was observed";
}

TEST_F(FleetCoreTest, HedgeServedFirstReportsTheLogicalLatency) {
  FleetCore::Flight& f = Admit(2, 1.0);
  ASSERT_TRUE(core_.FireHedge(f));
  // The hedge copy was admitted at 1.5, but the request arrived at 1.0:
  // the winner's latency includes the hedge delay.
  const std::optional<double> won = core_.CopyServed(f, Copy::kHedge, 1.75);
  ASSERT_TRUE(won.has_value());
  EXPECT_DOUBLE_EQ(*won, 0.75);
  EXPECT_EQ(core_.hedge_policy().samples(), 1u);
  EXPECT_FALSE(core_.CopyServed(f, Copy::kPrimary, 2.0).has_value());
  EXPECT_TRUE(Close(2));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.served, 1u);
  EXPECT_EQ(c.hedge_wins, 1u);
  EXPECT_EQ(c.primary_wins, 0u);
  EXPECT_EQ(c.hedges_cancelled, 1u);
}

TEST_F(FleetCoreTest, PrimaryShedThenHedgeServedIsServed) {
  FleetCore::Flight& f = Admit(3, 0.0);
  ASSERT_TRUE(core_.FireHedge(f));
  core_.CopyFailed(f, Copy::kPrimary, serve::Outcome::kShedCapacity);
  EXPECT_FALSE(Close(3)) << "resolved to the failure while the hedge lives";
  ASSERT_TRUE(core_.CopyServed(f, Copy::kHedge, 1.0).has_value());
  EXPECT_TRUE(Close(3));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.served, 1u);
  EXPECT_EQ(c.Shed(), 0u) << "a copy failure leaked into the ledger";
  EXPECT_EQ(c.hedge_wins, 1u);
  EXPECT_EQ(c.hedges_failed, 0u);
}

TEST_F(FleetCoreTest, BothCopiesShedResolveToThePrimarysFailure) {
  FleetCore::Flight& a = Admit(4, 0.0);
  ASSERT_TRUE(core_.FireHedge(a));
  core_.CopyFailed(a, Copy::kPrimary, serve::Outcome::kShedDeadline);
  core_.CopyFailed(a, Copy::kHedge, serve::Outcome::kShedCapacity);
  EXPECT_FALSE(a.resolved);
  EXPECT_EQ(a.failure, serve::Outcome::kShedDeadline);
  EXPECT_TRUE(Close(4));

  // Same race with the hedge failing first.
  FleetCore::Flight& b = Admit(5, 0.0);
  ASSERT_TRUE(core_.FireHedge(b));
  core_.CopyFailed(b, Copy::kHedge, serve::Outcome::kShedDeadline);
  EXPECT_FALSE(Close(5));
  core_.CopyFailed(b, Copy::kPrimary, serve::Outcome::kShedCapacity);
  EXPECT_TRUE(Close(5));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.served, 0u);
  EXPECT_EQ(c.shed_deadline, 1u);
  EXPECT_EQ(c.shed_capacity, 1u);
  EXPECT_EQ(c.hedges_failed, 2u);
  EXPECT_EQ(c.hedges_cancelled, 2u);
  EXPECT_EQ(core_.hedge_policy().samples(), 0u);
}

TEST_F(FleetCoreTest, HedgeRejectedAtAdmissionLeavesThePrimaryLive) {
  FleetCore::Flight& f = Admit(6, 0.0);
  ASSERT_TRUE(core_.FireHedge(f));
  core_.CopyFailed(f, Copy::kHedge, serve::Outcome::kRejectedCapacity);
  EXPECT_FALSE(Close(6));
  ASSERT_TRUE(core_.CopyServed(f, Copy::kPrimary, 1.0).has_value());
  EXPECT_TRUE(Close(6));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.Rejected(), 0u) << "the hedge's rejection reached the ledger";
  EXPECT_EQ(c.primary_wins, 1u);
  EXPECT_EQ(c.hedges_cancelled, 1u);
}

TEST_F(FleetCoreTest, RejectionAtAdmissionCountsOnTheRoutedShard) {
  const RouteDecision decision = core_.Route("t", 7);
  core_.Reject(decision.shard, serve::Outcome::kRejectedRateLimit);
  core_.CheckInvariants();
  EXPECT_EQ(core_.counters()[decision.shard].rejected_rate_limit, 1u);
  EXPECT_EQ(core_.counters()[decision.shard].submitted, 1u);
}

TEST_F(FleetCoreTest, PrimaryReroutedMidDrainTransfersOwnership) {
  FleetCore::Flight& f = Admit(8, 0.0);
  const ShardId from = f.owner;
  const ShardId to = Other(from);
  core_.router().DrainShard(from);
  EXPECT_FALSE(core_.FireHedge(f)) << "hedged into a draining shard";
  EXPECT_EQ(core_.Locate(f, from, f.primary_replica), Copy::kPrimary);
  core_.Reroute(f, Copy::kPrimary, to);
  EXPECT_EQ(f.owner, to);
  EXPECT_EQ(core_.Locate(f, to, f.primary_replica), Copy::kPrimary);
  ASSERT_TRUE(core_.CopyServed(f, Copy::kPrimary, 1.0).has_value());
  EXPECT_TRUE(Close(8));

  core_.CheckInvariants();
  EXPECT_EQ(core_.counters()[from].rerouted_out, 1u);
  EXPECT_EQ(core_.counters()[to].rerouted_in, 1u);
  EXPECT_EQ(core_.counters()[to].served, 1u);
  EXPECT_EQ(core_.counters()[from].served, 0u);
}

TEST_F(FleetCoreTest, HedgeReroutedMidDrainKeepsItsCountersHome) {
  FleetCore::Flight& f = Admit(9, 0.0);
  ASSERT_TRUE(core_.FireHedge(f));
  const ShardId home = f.owner;
  const ShardId to = Other(home);
  core_.router().DrainShard(home);
  // Both queued copies move, in the drain's replica order.
  core_.Reroute(f, Copy::kPrimary, to);
  core_.Reroute(f, Copy::kHedge, to);
  EXPECT_EQ(core_.Locate(f, to, f.hedge_replica), Copy::kHedge);
  EXPECT_EQ(f.hedge_home, home);
  ASSERT_TRUE(core_.CopyServed(f, Copy::kHedge, 1.0).has_value());
  ASSERT_FALSE(core_.CopyServed(f, Copy::kPrimary, 2.0).has_value());
  EXPECT_TRUE(Close(9));

  core_.CheckInvariants();
  EXPECT_EQ(core_.counters()[home].hedges_fired, 1u);
  EXPECT_EQ(core_.counters()[home].hedge_wins, 1u);
  EXPECT_EQ(core_.counters()[home].hedges_cancelled, 1u);
  EXPECT_EQ(core_.counters()[to].served, 1u);
  EXPECT_EQ(core_.counters()[to].hedges_fired, 0u);
}

TEST_F(FleetCoreTest, ResolvedLoserIsDroppedAtADrain) {
  FleetCore::Flight& f = Admit(10, 0.0);
  ASSERT_TRUE(core_.FireHedge(f));
  ASSERT_TRUE(core_.CopyServed(f, Copy::kPrimary, 1.0).has_value());
  // The hedge copy is still queued when its shard drains: dropped, not
  // moved, and it counts as the race's cancelled loser.
  core_.router().DrainShard(f.hedge_shard);
  core_.CopyDropped(f, Copy::kHedge);
  EXPECT_TRUE(Close(10));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.primary_wins, 1u);
  EXPECT_EQ(c.hedges_cancelled, 1u);
  EXPECT_EQ(c.rerouted_out, 0u);
}

TEST_F(FleetCoreTest, HedgeDoesNotFireWhenResolvedDoneDrainingOrFired) {
  // Already resolved (its primary served).
  FleetCore::Flight& served = Admit(11, 0.0);
  ASSERT_TRUE(core_.CopyServed(served, Copy::kPrimary, 1.0).has_value());
  EXPECT_FALSE(core_.FireHedge(served));
  EXPECT_TRUE(Close(11));

  // Primary done without a win: its failure is final.
  FleetCore::Flight& failed = Admit(12, 0.0);
  core_.CopyFailed(failed, Copy::kPrimary, serve::Outcome::kShedDeadline);
  EXPECT_FALSE(core_.FireHedge(failed));
  EXPECT_TRUE(Close(12));

  // Owner draining: the duplicate would only be rerouted away.
  FleetCore::Flight& draining = Admit(13, 0.0);
  core_.router().DrainShard(draining.owner);
  EXPECT_FALSE(core_.FireHedge(draining));
  core_.router().RejoinShard(draining.owner);
  // Already fired: one hedge per request.
  ASSERT_TRUE(core_.FireHedge(draining));
  EXPECT_FALSE(core_.FireHedge(draining));
  ASSERT_TRUE(core_.CopyServed(draining, Copy::kPrimary, 1.0).has_value());
  ASSERT_FALSE(core_.CopyServed(draining, Copy::kHedge, 1.0).has_value());
  EXPECT_TRUE(Close(13));

  core_.CheckInvariants();
  const ShardCounters c = Total();
  EXPECT_EQ(c.hedges_fired, 1u);
  EXPECT_EQ(c.served, 2u);
  EXPECT_EQ(c.shed_deadline, 1u);
}

TEST_F(FleetCoreTest, OwnsTracksOpenFlightsByOwner) {
  FleetCore::Flight& f = Admit(14, 0.0);
  const ShardId owner = f.owner;
  EXPECT_TRUE(core_.Owns(owner));
  EXPECT_FALSE(core_.Owns(Other(owner)));
  ASSERT_TRUE(core_.CopyServed(f, Copy::kPrimary, 1.0).has_value());
  EXPECT_TRUE(Close(14));
  EXPECT_FALSE(core_.Owns(owner));
  core_.CheckInvariants();
}

}  // namespace
}  // namespace ads::fleet
