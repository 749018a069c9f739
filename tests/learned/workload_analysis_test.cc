#include "learned/workload_analysis.h"

#include <gtest/gtest.h>

#include "tests/learned/harness.h"

namespace ads::learned {
namespace {

TEST(NodeFeaturesTest, CollectsLiteralsAndVolume) {
  workload::QueryGenerator gen({.seed = 1});
  auto job = gen.InstantiateTemplate(0);
  std::vector<double> f = NodeFeatures(*job.plan);
  EXPECT_GE(f.size(), 2u);  // at least one literal + scan volume
  // Same template, same arity.
  auto job2 = gen.InstantiateTemplate(0);
  EXPECT_EQ(NodeFeatures(*job2.plan).size(), f.size());
}

TEST(WorkloadAnalyzerTest, DetectsRecurringFraction) {
  workload::QueryGenerator gen({.recurring_fraction = 0.65, .seed = 2});
  WorkloadAnalyzer analyzer;
  for (int i = 0; i < 600; ++i) {
    auto job = gen.NextJob();
    analyzer.ObserveJob(job.job_id, *job.plan, 10.0);
  }
  // Paper: >60% recurring. Ad-hoc jobs can still collide into a template
  // only by exact structural accident, which is rare.
  EXPECT_GT(analyzer.RecurringJobFraction(), 0.55);
  EXPECT_LT(analyzer.RecurringJobFraction(), 0.80);
}

TEST(WorkloadAnalyzerTest, DetectsSharedSubexpressions) {
  workload::QueryGenerator gen({.shared_fragment_fraction = 0.8, .seed = 3});
  WorkloadAnalyzer analyzer;
  for (int i = 0; i < 400; ++i) {
    auto job = gen.NextJob();
    analyzer.ObserveJob(job.job_id, *job.plan, 10.0);
  }
  // Fragments are strictly identical across jobs, so sharing is detected.
  EXPECT_GT(analyzer.SharedSubexpressionFraction(), 0.25);
}

TEST(WorkloadAnalyzerTest, TemplatesSortedByOccurrence) {
  workload::QueryGenerator gen({.seed = 4});
  WorkloadAnalyzer analyzer;
  for (int i = 0; i < 300; ++i) {
    auto job = gen.NextJob();
    analyzer.ObserveJob(job.job_id, *job.plan, 5.0);
  }
  auto templates = analyzer.Templates();
  ASSERT_GE(templates.size(), 2u);
  for (size_t i = 1; i < templates.size(); ++i) {
    EXPECT_GE(templates[i - 1].occurrences, templates[i].occurrences);
  }
}

TEST(WorkloadAnalyzerTest, TemplateMeanRuntimeIsHistoryMean) {
  workload::QueryGenerator gen({.seed = 5});
  WorkloadAnalyzer analyzer;
  auto a = gen.InstantiateTemplate(3);
  uint64_t sig = a.plan->TemplateSignature();
  analyzer.ObserveJob(1, *a.plan, 10.0);
  auto b = gen.InstantiateTemplate(3);
  analyzer.ObserveJob(2, *b.plan, 20.0);
  auto templates = analyzer.Templates();
  ASSERT_EQ(templates.size(), 1u);
  EXPECT_EQ(templates[0].template_signature, sig);
  EXPECT_EQ(templates[0].occurrences, 2u);
  EXPECT_DOUBLE_EQ(templates[0].mean_runtime(), 15.0);
}

TEST(WorkloadAnalyzerTest, NodeObservationsAccumulatePerTemplate) {
  workload::QueryGenerator gen({.seed = 6});
  WorkloadAnalyzer analyzer;
  for (int i = 0; i < 10; ++i) {
    auto job = gen.InstantiateTemplate(1);
    analyzer.ObserveJob(job.job_id, *job.plan, 1.0);
  }
  auto job = gen.InstantiateTemplate(1);
  uint64_t root_sig = job.plan->TemplateSignature();
  const auto& obs = analyzer.node_observations();
  auto it = obs.find(root_sig);
  ASSERT_NE(it, obs.end());
  EXPECT_EQ(it->second.size(), 10u);
  // Observations carry the truth and the default estimate.
  for (const CardObservation& o : it->second) {
    EXPECT_GE(o.true_card, 1.0);
  }
}

TEST(WorkloadAnalyzerTest, EmptyAnalyzerIsZero) {
  WorkloadAnalyzer analyzer;
  EXPECT_DOUBLE_EQ(analyzer.RecurringJobFraction(), 0.0);
  EXPECT_DOUBLE_EQ(analyzer.SharedSubexpressionFraction(), 0.0);
  EXPECT_TRUE(analyzer.Templates().empty());
}

}  // namespace
}  // namespace ads::learned
