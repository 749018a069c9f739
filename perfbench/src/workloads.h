#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "report.h"

// The three workloads, one per end-to-end driver of the stack. Each fills
// `report` with the metrics of the run's mode and counts every operation;
// a fatal set-up error throws. README.md in this directory records why each
// workload was chosen and which layers it exercises and bypasses.

namespace ads::perfbench {

/// Threaded ServingRuntime over a ResilientModelServer forest backend: a
/// paced open-loop phase, then a saturated closed-loop phase.
void RunServeForest(const RunOptions& options, Report* report);

/// One client, closed loop over the six TPC-H templates at SF 1:
/// MakeQuery -> Optimize(RuleConfig::Default()) -> RealExecutor::Execute.
void RunQueryTpch(const RunOptions& options, Report* report);

/// StandardScenarios(scale) under DefaultBlueprint(), each through
/// RunScenario serially on one thread, repeated for the run's duration.
void RunScenarioPack(const RunOptions& options, Report* report);

}  // namespace ads::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
