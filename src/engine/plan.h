#ifndef ADS_ENGINE_PLAN_H_
#define ADS_ENGINE_PLAN_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "engine/expr.h"

namespace ads::engine {

/// Logical/physical operator kinds. Physical distinctions that matter to
/// the cost model (hash vs broadcast join) live in JoinStrategy.
enum class OpType {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kUnion,
};

const char* OpTypeName(OpType op);

/// Physical join strategies the optimizer can choose between.
enum class JoinStrategy { kShuffleHash, kBroadcast };

/// Join parameters. `true_selectivity_factor` is ground truth set by the
/// generator: true join cardinality = |L| * |R| * factor.
struct JoinSpec {
  std::string left_key;
  std::string right_key;
  double true_selectivity_factor = 1e-6;
  JoinStrategy strategy = JoinStrategy::kShuffleHash;
};

/// Aggregate functions computed by an Aggregate node. Sums over integer
/// columns are exact; sums over doubles accumulate in input row order,
/// which is part of the operator's defined semantics (both the vectorized
/// and the reference executor implement exactly this order, so results are
/// bit-identical by construction).
enum class AggFn { kSum, kCount, kAvg, kMin, kMax };

const char* AggFnName(AggFn fn);

/// One aggregate output. `column` is the input column aggregated over;
/// empty means COUNT(*) (only valid with kCount). The output column is
/// named "<fn>_<column>" ("count_rows" for COUNT(*)).
struct AggExpr {
  AggFn fn = AggFn::kCount;
  std::string column;

  std::string OutputName() const;
};

/// Aggregation parameters. `true_distinct_ratio` is ground truth: output
/// rows = input rows * ratio. `aggs` lists the computed aggregates; an
/// empty list means a bare COUNT(*) (the pre-execution simulated path
/// never looked at aggregate functions, so old plans stay valid).
struct AggSpec {
  std::vector<std::string> group_keys;
  double true_distinct_ratio = 0.1;
  std::vector<AggExpr> aggs;
};

/// One node of a query plan tree.
///
/// Plans are mutable trees owned through unique_ptr; the optimizer rewrites
/// them in place or via Clone(). Cardinality annotations:
///  - true_card: ground-truth output rows, derived from the generator's
///    hidden selectivities (what actually happens at runtime);
///  - est_card: the optimizer's belief, filled in by an estimator.
struct PlanNode {
  OpType op = OpType::kScan;

  // Scan.
  std::string table;
  double table_rows = 0.0;  // copied from the catalog at build time

  // Filter.
  std::vector<Predicate> predicates;

  // Project.
  std::vector<std::string> columns;
  /// Bytes per output row after this operator (projection narrows rows).
  double row_width = 100.0;

  // Join / Aggregate.
  JoinSpec join;
  AggSpec agg;

  std::vector<std::unique_ptr<PlanNode>> children;

  // Annotations.
  double true_card = 0.0;
  double est_card = 0.0;

  /// Deep copy.
  std::unique_ptr<PlanNode> Clone() const;

  /// Structural hash including literals: identical recurring runs share it.
  uint64_t StrictSignature() const;
  /// Structural hash excluding literals: runs of the same script with
  /// different parameters share it (Peregrine templates, CloudViews).
  uint64_t TemplateSignature() const;

  size_t NodeCount() const;
  int Depth() const;

  /// Pre-order visit.
  void Visit(const std::function<void(const PlanNode&)>& fn) const;

  /// Human-readable indented tree (for debugging and examples).
  std::string ToString(int indent = 0) const;
};

/// Builders for the common node shapes.
std::unique_ptr<PlanNode> MakeScan(const TableSpec& table);
std::unique_ptr<PlanNode> MakeFilter(std::unique_ptr<PlanNode> child,
                                     std::vector<Predicate> predicates);
std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> child,
                                      std::vector<std::string> columns,
                                      double row_width);
std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   JoinSpec join);
std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> child,
                                        AggSpec agg);
std::unique_ptr<PlanNode> MakeUnion(std::unique_ptr<PlanNode> left,
                                    std::unique_ptr<PlanNode> right);
std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> child,
                                   std::vector<std::string> columns);

/// Computes and annotates true_card on every node from the generator's
/// hidden selectivities (bottom-up).
void AnnotateTrueCardinality(PlanNode& node);

}  // namespace ads::engine

#endif  // ADS_ENGINE_PLAN_H_
