#ifndef ADS_WORKLOAD_PIPELINE_GEN_H_
#define ADS_WORKLOAD_PIPELINE_GEN_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace ads::workload {

/// A recurring pipeline: a small DAG of jobs where the output of one job
/// feeds the next (the paper: 70% of daily SCOPE jobs have inter-job
/// dependencies). Node payloads are template ids into a QueryGenerator.
struct PipelineSpec {
  int id = 0;
  /// Template id per pipeline node.
  std::vector<size_t> job_templates;
  /// (producer, consumer) indices into job_templates.
  std::vector<std::pair<int, int>> edges;

  size_t size() const { return job_templates.size(); }
};

struct PipelineGenOptions {
  /// Fraction of daily jobs that belong to pipelines (vs standalone).
  double pipelined_fraction = 0.70;
  size_t min_pipeline_jobs = 2;
  size_t max_pipeline_jobs = 6;
  uint64_t seed = 1;
};

/// One generated "day" of work: pipelines plus standalone jobs.
struct DailyWorkload {
  std::vector<PipelineSpec> pipelines;
  std::vector<size_t> standalone_templates;

  size_t TotalJobs() const;
  /// Fraction of jobs that are members of a pipeline.
  double PipelinedFraction() const;
};

/// Samples daily workloads whose jobs reference templates in
/// [0, num_templates).
class PipelineGenerator {
 public:
  PipelineGenerator(size_t num_templates,
                    PipelineGenOptions options = PipelineGenOptions());

  /// Generates one day's workload with roughly `total_jobs` jobs.
  DailyWorkload GenerateDay(size_t total_jobs);

 private:
  size_t num_templates_;
  PipelineGenOptions options_;
  common::Rng rng_;
  int next_pipeline_id_ = 0;
};

}  // namespace ads::workload

#endif  // ADS_WORKLOAD_PIPELINE_GEN_H_
