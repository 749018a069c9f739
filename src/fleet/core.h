#ifndef ADS_FLEET_CORE_H_
#define ADS_FLEET_CORE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "autonomy/router.h"
#include "autonomy/serving.h"
#include "fleet/hedge.h"
#include "fleet/router.h"
#include "fleet/types.h"
#include "serve/types.h"
#include "telemetry/span.h"

namespace ads::fleet {

/// The response of a logical request whose outcome is a failure.
serve::Response FailureResponse(uint64_t id, serve::Outcome outcome);

/// Single-threaded heart of the sharded fleet: routing and its counts,
/// the version pin, the per-request hedge/ownership state machine and the
/// ShardCounters ledger. Owns no threads, no clock and no tracer; both
/// runtimes (FleetRuntime under its mutex, VirtualFleet from its event
/// loop) pass explicit timestamps — as ServingCore sits under
/// ServingRuntime and VirtualServer — so the simulated fleet makes the
/// decisions the threaded one makes.
///
/// A flight lives from Open to the terminal event of its last physical
/// copy: Open → Accept → [FireHedge] → per copy CopyServed / CopyFailed /
/// CopyDropped / Reroute → Finalize → Erase. The first served copy wins,
/// with latency measured from the logical arrival whichever copy won; a
/// flight no copy served resolves to the primary's failure.
class FleetCore {
 public:
  enum class Copy { kPrimary, kHedge };

  /// One logical request, plus plain fields only one runtime reads.
  struct Flight {
    serve::Request prototype;  // version-pinned copy the hedge duplicates
    double arrival = 0.0;      // logical arrival on the caller's clock
    ShardId owner = 0;         // shard owning the primary copy
    size_t primary_replica = 0;
    ShardId hedge_shard = 0;   // where the hedge copy sits now
    size_t hedge_replica = 0;
    ShardId hedge_home = 0;    // shard the hedge counters live on
    bool resolved = false;     // a served copy won
    bool primary_done = false;
    bool hedge_fired = false;
    bool hedge_done = false;
    bool have_failure = false;
    serve::Outcome failure = serve::Outcome::kServed;  // primary's failure

    std::function<void(const serve::Response&)> user;  // FleetRuntime
    telemetry::SpanId root_span = telemetry::kNoSpan;  // VirtualFleet...
    telemetry::SpanId hedge_span = telemetry::kNoSpan;
    bool root_ended = false;  // ...the replica core closed the root
  };
  using Flights = std::map<uint64_t, Flight>;

  FleetCore(size_t shards, size_t replicas_per_shard, RouterOptions router,
            HedgeOptions hedge);

  FleetRouter& router() { return router_; }
  const FleetRouter& router() const { return router_; }
  const HedgePolicy& hedge_policy() const { return hedge_; }
  const std::vector<ShardCounters>& counters() const { return counters_; }
  /// Borrowed; may be null.
  void SetVersionRouter(const autonomy::VersionRouter* router) {
    version_router_ = router;
  }

  /// Routes a fresh arrival; counts `submitted` on the chosen shard and a
  /// drain/load divert on the home shard.
  RouteDecision Route(const std::string& tenant, uint64_t id);
  /// Pins the model version once per logical request (version router,
  /// else the deployed version); every copy and reroute serves under it.
  void Pin(serve::Request* request,
           const autonomy::ResilientModelServer& backend) const;

  /// Opens request `id`'s flight, its primary placed at `decision`.
  Flight& Open(uint64_t id, const RouteDecision& decision, double arrival,
               serve::Request prototype);
  void Accept(ShardId shard) { counters_[shard].accepted += 1; }
  /// The primary was refused at admission, with no flight open.
  void Reject(ShardId shard, serve::Outcome outcome) {
    CountFailure(shard, outcome);
  }
  Flights::iterator Find(uint64_t id) { return flights_.find(id); }
  Flights::iterator end() { return flights_.end(); }
  /// True while an open flight's primary is owned by `shard`.
  bool Owns(ShardId shard) const;

  /// Whether accepted requests arm a hedge timer at all.
  bool hedging() const {
    return hedge_.enabled() && router_.replicas_per_shard() >= 2;
  }
  double HedgeDelay() const { return hedge_.Delay(); }
  /// The hedge timer fired. Launches (and counts) the hedge on (owner,
  /// primary_replica + 1) unless the flight is resolved, already hedged
  /// or primary-done, or the owner is draining (the duplicate would only
  /// be rerouted away).
  bool FireHedge(Flight& flight);

  /// Which copy sits on (shard, replica); checks that one does.
  Copy Locate(const Flight& flight, ShardId shard, size_t replica) const;
  /// The first served copy counts `served` on the owner and the hedge
  /// race's winner, feeds its logical latency (now − arrival) to the
  /// hedge policy and returns it; a loser returns nothing.
  std::optional<double> CopyServed(Flight& flight, Copy copy, double now);
  /// A copy failed (rejected, shed); the primary's failure is held as the
  /// logical outcome unless a copy already won.
  void CopyFailed(Flight& flight, Copy copy, serve::Outcome outcome);
  /// A resolved flight's queued loser was dropped.
  void CopyDropped(Flight& flight, Copy copy);
  /// A queued copy moved to shard `to`; a moved primary transfers
  /// ownership (rerouted_out on the old owner, rerouted_in on `to`).
  void Reroute(Flight& flight, Copy copy, ShardId to);
  /// Once every launched copy is done, closes the ledger and returns true:
  /// an unresolved flight counts the primary's failure on its owner (and
  /// hedges_failed); a fired hedge counts its one cancelled loser. The
  /// caller emits what it must, then Erase()s.
  bool Finalize(Flight& flight);
  void Erase(Flights::iterator it) { flights_.erase(it); }

  /// Checks that no flight is open and the ledger balances (the
  /// invariants listed on ShardCounters).
  void CheckInvariants() const;

 private:
  /// The one outcome → rejected_* / shed_* counter mapping.
  void CountFailure(ShardId shard, serve::Outcome outcome);

  FleetRouter router_;
  HedgePolicy hedge_;
  const autonomy::VersionRouter* version_router_ = nullptr;
  std::vector<ShardCounters> counters_;
  Flights flights_;
};

}  // namespace ads::fleet

#endif  // ADS_FLEET_CORE_H_
