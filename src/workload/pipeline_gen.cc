#include "workload/pipeline_gen.h"

#include <algorithm>

#include "common/logging.h"

namespace ads::workload {

size_t DailyWorkload::TotalJobs() const {
  size_t n = standalone_templates.size();
  for (const PipelineSpec& p : pipelines) n += p.size();
  return n;
}

double DailyWorkload::PipelinedFraction() const {
  size_t total = TotalJobs();
  if (total == 0) return 0.0;
  return 1.0 - static_cast<double>(standalone_templates.size()) /
                   static_cast<double>(total);
}

PipelineGenerator::PipelineGenerator(size_t num_templates,
                                     PipelineGenOptions options)
    : num_templates_(num_templates), options_(options), rng_(options.seed) {
  ADS_CHECK(num_templates > 0) << "need templates to build pipelines";
}

DailyWorkload PipelineGenerator::GenerateDay(size_t total_jobs) {
  DailyWorkload day;
  size_t pipelined_budget = static_cast<size_t>(
      options_.pipelined_fraction * static_cast<double>(total_jobs));
  size_t placed = 0;
  while (placed + options_.min_pipeline_jobs <= pipelined_budget) {
    size_t jobs = static_cast<size_t>(rng_.UniformInt(
        static_cast<int64_t>(options_.min_pipeline_jobs),
        static_cast<int64_t>(options_.max_pipeline_jobs)));
    jobs = std::min(jobs, pipelined_budget - placed);
    if (jobs < options_.min_pipeline_jobs) break;
    PipelineSpec p;
    p.id = next_pipeline_id_++;
    for (size_t j = 0; j < jobs; ++j) {
      p.job_templates.push_back(static_cast<size_t>(
          rng_.UniformInt(0, static_cast<int64_t>(num_templates_) - 1)));
      if (j > 0) {
        // Each job consumes a previous job's output: pick a random earlier
        // producer, which yields tree/diamond shapes.
        int producer = static_cast<int>(
            rng_.UniformInt(0, static_cast<int64_t>(j) - 1));
        p.edges.emplace_back(producer, static_cast<int>(j));
        // Occasionally a second dependency (diamond).
        if (j >= 2 && rng_.Bernoulli(0.25)) {
          int second = static_cast<int>(
              rng_.UniformInt(0, static_cast<int64_t>(j) - 1));
          if (second != producer) {
            p.edges.emplace_back(second, static_cast<int>(j));
          }
        }
      }
    }
    placed += jobs;
    day.pipelines.push_back(std::move(p));
  }
  while (placed < total_jobs) {
    day.standalone_templates.push_back(static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(num_templates_) - 1)));
    ++placed;
  }
  return day;
}

}  // namespace ads::workload
