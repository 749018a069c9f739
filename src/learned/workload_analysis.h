#ifndef ADS_LEARNED_WORKLOAD_ANALYSIS_H_
#define ADS_LEARNED_WORKLOAD_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/plan.h"

namespace ads::learned {

/// Feature vector for a plan node used by the cardinality/cost micromodels:
/// the predicate literals in the node's subtree in a deterministic order,
/// plus the subtree's scan input volume. Within one template signature the
/// arity is fixed, so per-template models can train on it directly.
std::vector<double> NodeFeatures(const engine::PlanNode& node);

/// One training observation for a node-level micromodel.
struct CardObservation {
  std::vector<double> features;
  double true_card = 0.0;
  double default_estimate = 0.0;
};

/// One observed job execution.
struct JobObservation {
  uint64_t job_id = 0;
  uint64_t strict_signature = 0;
  uint64_t template_signature = 0;
  double runtime_seconds = 0.0;
  double total_compute = 0.0;
};

/// Aggregate information about one recurring template.
struct TemplateInfo {
  uint64_t template_signature = 0;
  size_t occurrences = 0;
  double total_runtime = 0.0;
  double mean_runtime() const {
    return occurrences == 0 ? 0.0
                            : total_runtime / static_cast<double>(occurrences);
  }
};

/// Peregrine-style workload analyzer: ingests executed jobs (plan + runtime
/// statistics), categorizes them into templates by signature, tracks
/// subexpression sharing, and accumulates per-node training data for the
/// learned cardinality/cost components. This is the "combine the dispersed
/// workload data first" step the paper describes.
class WorkloadAnalyzer {
 public:
  /// Records one executed job. The plan must carry true_card annotations
  /// (set by execution) and est_card annotations (set by the optimizer).
  void ObserveJob(uint64_t job_id, const engine::PlanNode& plan,
                  double runtime_seconds, double total_compute = 0.0);

  size_t jobs_observed() const { return jobs_.size(); }

  /// Fraction of observed jobs whose template signature occurred more than
  /// once (the paper: >60% of SCOPE jobs are recurring).
  double RecurringJobFraction() const;

  /// Fraction of observed jobs that share at least one non-trivial strict
  /// subexpression (subtree of >= min_nodes nodes) with a DIFFERENT job
  /// (the paper: ~40% of daily jobs share common subexpressions).
  double SharedSubexpressionFraction(size_t min_nodes = 2) const;

  /// Templates sorted by occurrence count, descending.
  std::vector<TemplateInfo> Templates() const;

  /// Per-template-signature node observations for micromodel training.
  const std::map<uint64_t, std::vector<CardObservation>>& node_observations()
      const {
    return node_observations_;
  }

  /// All job observations in arrival order.
  const std::vector<JobObservation>& jobs() const { return jobs_; }

 private:
  std::vector<JobObservation> jobs_;
  std::map<uint64_t, TemplateInfo> templates_;
  std::map<uint64_t, std::vector<CardObservation>> node_observations_;
  // strict subexpression signature -> number of distinct jobs containing it.
  std::map<uint64_t, size_t> subexpr_job_counts_;
  // per observed job: the distinct subexpression signatures it contains.
  std::vector<std::pair<uint64_t, std::vector<uint64_t>>> job_subexprs_;
};

}  // namespace ads::learned

#endif  // ADS_LEARNED_WORKLOAD_ANALYSIS_H_
