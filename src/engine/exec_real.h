#ifndef ADS_ENGINE_EXEC_REAL_H_
#define ADS_ENGINE_EXEC_REAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "engine/plan.h"
#include "engine/table.h"
#include "telemetry/span.h"

namespace ads::engine {

/// Measured execution of one operator: what the learned components can
/// now score against, instead of the simulated stage-cost model.
struct OperatorStats {
  OpType op = OpType::kScan;
  /// Identity: table name, join keys, group-key count — never timing.
  std::string detail;
  /// Sum of child output rows (0 for scans).
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  /// Optimizer annotations copied from the plan node, so estimated vs
  /// actual cardinality lines up without re-walking the plan.
  double est_card = 0.0;
  double true_card = 0.0;
  /// Measured wall-clock seconds for this operator.
  double seconds = 0.0;
};

/// Result of really executing a plan.
struct ExecResult {
  ColumnTable table;
  /// Post-order (children before parents), one entry per plan node.
  std::vector<OperatorStats> operators;
  double total_seconds = 0.0;
};

struct RealExecOptions {
  /// Pool for the parallel kernels; nullptr means ThreadPool::Global().
  common::ThreadPool* pool = nullptr;
  /// Seed for join/group hashing. Policy: one fixed seed per executor —
  /// never derived from data or time — so a plan re-executed on the same
  /// store is bit-identical, across runs and across ADS_THREADS.
  uint64_t hash_seed = 0x8f3a96cd15ce1bd3ull;
};

/// Vectorized columnar executor over a TableStore.
///
/// Supported plan shapes: Scan (with optional ProjectIntoScan column
/// narrowing), Filter, Project, inner equi-Join on i64 keys, Aggregate
/// (group keys i64; sum/count/avg/min/max per AggSpec::aggs, bare
/// COUNT(*) when empty), Sort (ascending, stable), Union (same schema).
/// Unsupported shapes — the off-by-default EagerAggregation partial
/// aggregates and ContradictionToEmpty's "<empty>" relation — fail with
/// a clean Status instead of executing wrong.
///
/// Late materialization (DESIGN.md §15): intermediates are column
/// pointers plus an explicit row count. Scans borrow the TableStore's
/// columns and copy nothing, so the store must outlive Execute and stay
/// unmodified during it. A top-down demand pass tells every node which of
/// its output columns the operators above still reference; Filter, Join
/// and Sort gather only those. The root demands its full schema and
/// Execute materializes it into ExecResult::table, moving the columns an
/// operator computed and copying the ones still borrowed from the store.
/// Scan and Project still check every column they name, so a plan fails
/// with the same Status whether or not anything above reads the column.
///
/// Output order is fully defined (see DESIGN.md §15), so results are
/// exactly comparable against the row-at-a-time ReferenceExecutor.
///
/// With a tracer, records one "operator" span per plan node (children
/// nested under parents) with deterministic identity attributes
/// (rows_in/rows_out/detail); timestamps are measured seconds from the
/// start of Execute.
class RealExecutor {
 public:
  explicit RealExecutor(const TableStore* store,
                        RealExecOptions options = RealExecOptions());

  common::Result<ExecResult> Execute(
      const PlanNode& plan, telemetry::Tracer* tracer = nullptr,
      telemetry::SpanId parent = telemetry::kNoSpan) const;

 private:
  struct ExecContext;
  struct Demand;
  struct Relation;
  common::Result<Relation> Exec(const PlanNode& node, const Demand& demand,
                                ExecContext& ctx,
                                telemetry::SpanId parent) const;
  common::Result<Relation> ExecScan(const PlanNode& node) const;
  common::Result<Relation> ExecFilter(const PlanNode& node, Relation input,
                                      const Demand& demand) const;
  common::Result<Relation> ExecProject(const PlanNode& node,
                                       Relation input) const;
  common::Result<Relation> ExecJoin(const PlanNode& node, Relation left,
                                    Relation right,
                                    const Demand& demand) const;
  common::Result<Relation> ExecAggregate(const PlanNode& node,
                                         Relation input) const;
  common::Result<Relation> ExecSort(const PlanNode& node, Relation input,
                                    const Demand& demand) const;
  common::Result<Relation> ExecUnion(Relation left, Relation right) const;
  common::ThreadPool& pool() const;

  const TableStore* store_;
  RealExecOptions options_;
};

}  // namespace ads::engine

#endif  // ADS_ENGINE_EXEC_REAL_H_
