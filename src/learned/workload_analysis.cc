#include "learned/workload_analysis.h"

#include <algorithm>
#include <cmath>

namespace ads::learned {

using engine::OpType;
using engine::PlanNode;

std::vector<double> NodeFeatures(const PlanNode& node) {
  // Deterministic pre-order collection of predicate literals, plus the
  // total scan volume feeding the subtree. Literals are what vary across
  // recurring runs of one template; scan volume captures data growth.
  std::vector<double> features;
  double scan_rows = 0.0;
  node.Visit([&](const PlanNode& n) {
    if (n.op == OpType::kFilter) {
      for (const engine::Predicate& p : n.predicates) {
        features.push_back(p.value);
      }
    }
    if (n.op == OpType::kScan) scan_rows += n.table_rows;
  });
  features.push_back(std::log1p(scan_rows));
  return features;
}

void WorkloadAnalyzer::ObserveJob(uint64_t job_id, const PlanNode& plan,
                                  double runtime_seconds,
                                  double total_compute) {
  JobObservation job;
  job.job_id = job_id;
  job.strict_signature = plan.StrictSignature();
  job.template_signature = plan.TemplateSignature();
  job.runtime_seconds = runtime_seconds;
  job.total_compute = total_compute;
  jobs_.push_back(job);

  TemplateInfo& info = templates_[job.template_signature];
  info.template_signature = job.template_signature;
  ++info.occurrences;
  info.total_runtime += runtime_seconds;

  // Node-level observations keyed by the node's template signature.
  plan.Visit([&](const PlanNode& n) {
    CardObservation obs;
    obs.features = NodeFeatures(n);
    obs.true_card = n.true_card;
    obs.default_estimate = n.est_card;
    node_observations_[n.TemplateSignature()].push_back(std::move(obs));
  });

  // Subexpression sharing: count distinct jobs per non-trivial strict
  // subexpression, and remember each job's signature set for the
  // fraction query.
  std::vector<uint64_t> sigs;
  plan.Visit([&](const PlanNode& n) {
    if (n.NodeCount() < 2) return;
    sigs.push_back(n.StrictSignature());
  });
  std::sort(sigs.begin(), sigs.end());
  sigs.erase(std::unique(sigs.begin(), sigs.end()), sigs.end());
  for (uint64_t sig : sigs) ++subexpr_job_counts_[sig];
  job_subexprs_.emplace_back(job_id, std::move(sigs));
}

double WorkloadAnalyzer::RecurringJobFraction() const {
  if (jobs_.empty()) return 0.0;
  size_t recurring = 0;
  for (const JobObservation& job : jobs_) {
    auto it = templates_.find(job.template_signature);
    if (it != templates_.end() && it->second.occurrences > 1) ++recurring;
  }
  return static_cast<double>(recurring) / static_cast<double>(jobs_.size());
}

double WorkloadAnalyzer::SharedSubexpressionFraction(size_t min_nodes) const {
  (void)min_nodes;  // the collection filter (NodeCount >= 2) applies
  if (job_subexprs_.empty()) return 0.0;
  size_t sharing = 0;
  for (const auto& [job_id, sigs] : job_subexprs_) {
    (void)job_id;
    for (uint64_t sig : sigs) {
      auto it = subexpr_job_counts_.find(sig);
      if (it != subexpr_job_counts_.end() && it->second >= 2) {
        ++sharing;
        break;
      }
    }
  }
  return static_cast<double>(sharing) /
         static_cast<double>(job_subexprs_.size());
}

std::vector<TemplateInfo> WorkloadAnalyzer::Templates() const {
  std::vector<TemplateInfo> out;
  out.reserve(templates_.size());
  for (const auto& [sig, info] : templates_) out.push_back(info);
  std::sort(out.begin(), out.end(),
            [](const TemplateInfo& a, const TemplateInfo& b) {
              return a.occurrences > b.occurrences;
            });
  return out;
}

}  // namespace ads::learned
