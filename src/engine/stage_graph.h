#ifndef ADS_ENGINE_STAGE_GRAPH_H_
#define ADS_ENGINE_STAGE_GRAPH_H_

#include <set>
#include <string>
#include <vector>

#include "engine/cost.h"
#include "engine/plan.h"

namespace ads::engine {

/// One execution stage: a pipeline of operators between exchange points,
/// as in SCOPE/Spark. Stage outputs are written to machine-local temporary
/// storage and read by consumer stages — which is exactly the resource the
/// Phoebe checkpoint optimizer manages.
struct Stage {
  int id = 0;
  std::vector<int> inputs;  // upstream stage ids
  std::string label;
  /// Work in cost units (drives the stage's duration).
  double work = 0.0;
  /// Rows/bytes written at the stage boundary (shuffle/broadcast output).
  double output_rows = 0.0;
  double output_bytes = 0.0;
};

/// A compiled job: DAG of stages, last stage is the job output.
struct StageGraph {
  std::vector<Stage> stages;
  int final_stage = -1;

  size_t size() const { return stages.size(); }
  double TotalWork() const;

  /// Downstream adjacency (consumers of each stage).
  std::vector<std::vector<int>> Consumers() const;

  /// Stages that must re-execute after a failure that wipes temporary
  /// storage, given the set of stages whose outputs were checkpointed to
  /// durable storage. A stage re-runs iff it is not checkpointed and some
  /// consumer (transitively, or the final stage itself) re-runs.
  std::vector<bool> MustRerun(const std::set<int>& checkpointed) const;

  /// Total work of the stages MustRerun selects.
  double RestartWork(const std::set<int>& checkpointed) const;

  /// Candidate checkpoint cuts by topological level: for level L, the cut
  /// is every stage at topological depth <= L whose output feeds a stage at
  /// depth > L (plus dangling outputs). Level cuts are what the checkpoint
  /// optimizer searches over.
  std::set<int> LevelCut(int level) const;
  /// Topological depth of each stage (sources at 0).
  std::vector<int> Depths() const;
  int MaxDepth() const;
};

/// Compiles an (optimized, annotated) plan into a stage DAG. Stage work is
/// computed with the cost model from the chosen cardinality source —
/// kTrue for execution simulation, kEstimated for planning-time reasoning.
StageGraph CompileToStages(const PlanNode& plan, const CostModel& cost_model,
                           CardSource source);

}  // namespace ads::engine

#endif  // ADS_ENGINE_STAGE_GRAPH_H_
