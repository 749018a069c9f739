#ifndef ADS_ENGINE_RULES_H_
#define ADS_ENGINE_RULES_H_

#include <bitset>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/cardinality.h"
#include "engine/catalog.h"
#include "engine/plan.h"

namespace ads::engine {

/// Transformation rules of the optimizer. Each is a genuine plan rewrite;
/// the RuleConfig bitset enables/disables them individually, which is the
/// surface the Bao-style steering component manipulates (the paper's SCOPE
/// engine has 256 such rules; this engine has kNumRules).
enum class RuleId : int {
  kFilterMerge = 0,          // Filter(Filter(x)) -> Filter(x)
  kFilterPushdownProject,    // Filter(Project(x)) -> Project(Filter(x))
  kFilterPushdownJoin,       // route predicates to the join side that owns them
  kFilterPushdownUnion,      // Filter(Union(a,b)) -> Union(Filter(a),Filter(b))
  kFilterPushdownAggregate,  // legal when the predicate is on a group key
  kPredicateSimplify,        // drop predicates with estimated selectivity 1
  kContradictionToEmpty,     // x<=a AND x>=b, b>a  ->  empty relation
  kProjectMerge,             // Project(Project(x)) -> Project(x)
  kProjectIntoScan,          // Project(Scan) -> narrowed Scan
  kSortElimination,          // Aggregate(Sort(x)) -> Aggregate(x); Sort(Sort)
  kJoinCommute,              // put the estimated-smaller input on the build side
  kJoinAssociativity,        // reassociate a join chain when estimates favor it
  kBroadcastJoin,            // broadcast strategy for small build sides
  kEagerAggregation,         // partial aggregate below a join
};

inline constexpr int kNumRules = 14;

/// On/off configuration of the rule set.
struct RuleConfig {
  std::bitset<kNumRules> enabled;

  /// Production default: everything on except the two aggressive rules
  /// (eager aggregation and empty propagation), mirroring how engines ship
  /// risky rules off by default.
  static RuleConfig Default();
  /// All rules on.
  static RuleConfig All();
  /// All rules off (the "no optimizer" baseline).
  static RuleConfig None();

  bool IsEnabled(RuleId id) const {
    return enabled.test(static_cast<size_t>(id));
  }
  RuleConfig With(RuleId id, bool on) const {
    RuleConfig c = *this;
    c.enabled.set(static_cast<size_t>(id), on);
    return c;
  }
  /// Hamming distance — steering is restricted to small distances for
  /// interpretability ("small incremental steps").
  int Distance(const RuleConfig& other) const {
    return static_cast<int>((enabled ^ other.enabled).count());
  }
  /// All configs at Hamming distance exactly 1.
  std::vector<RuleConfig> Neighbors() const;

  std::string ToString() const { return enabled.to_string(); }

  bool operator==(const RuleConfig& other) const {
    return enabled == other.enabled;
  }
};

/// Context rules need: catalog for column ownership / stats, and broadcast
/// threshold for the physical rule.
struct RuleContext {
  const Catalog* catalog = nullptr;
  /// Broadcast when the estimated build side is under this many bytes.
  double broadcast_threshold_bytes = 5.0e6;
};

/// Applies one rule everywhere it matches, once. `node` children must carry
/// est_card annotations (rules with cost-based conditions read them).
/// Returns the (possibly replaced) subtree root and sets *changed.
std::unique_ptr<PlanNode> ApplyRule(RuleId id, std::unique_ptr<PlanNode> node,
                                    const RuleContext& ctx, bool* changed);

/// True if any Scan in the subtree reads a table that owns `column`.
bool SubtreeHasColumn(const PlanNode& node, const Catalog& catalog,
                      const std::string& column);

}  // namespace ads::engine

#endif  // ADS_ENGINE_RULES_H_
