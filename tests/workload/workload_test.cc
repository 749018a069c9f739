#include <gtest/gtest.h>

#include <map>
#include <set>

#include "workload/arrival.h"
#include "workload/pipeline_gen.h"
#include "workload/query_gen.h"
#include "workload/response_surface.h"
#include "workload/usage_gen.h"

namespace ads::workload {
namespace {

TEST(QueryGenTest, CatalogHasRequestedTables) {
  QueryGenerator gen({.num_tables = 6, .num_templates = 20, .seed = 1});
  EXPECT_EQ(gen.catalog().size(), 6u);
  EXPECT_EQ(gen.num_templates(), 20u);
}

TEST(QueryGenTest, RecurringFractionApproximatelyRespected) {
  QueryGenerator gen({.recurring_fraction = 0.65, .seed = 2});
  int recurring = 0;
  constexpr int kJobs = 2000;
  for (int i = 0; i < kJobs; ++i) {
    if (gen.NextJob().recurring) ++recurring;
  }
  EXPECT_NEAR(static_cast<double>(recurring) / kJobs, 0.65, 0.04);
}

TEST(QueryGenTest, TemplateInstancesShareTemplateSignature) {
  QueryGenerator gen({.seed = 3});
  auto a = gen.InstantiateTemplate(5);
  auto b = gen.InstantiateTemplate(5);
  EXPECT_EQ(a.plan->TemplateSignature(), b.plan->TemplateSignature());
  // Fresh literals are drawn, so strict signatures (almost surely) differ.
  EXPECT_NE(a.plan->StrictSignature(), b.plan->StrictSignature());
}

TEST(QueryGenTest, DifferentTemplatesDiffer) {
  QueryGenerator gen({.seed = 4});
  auto a = gen.InstantiateTemplate(1);
  auto b = gen.InstantiateTemplate(2);
  EXPECT_NE(a.plan->TemplateSignature(), b.plan->TemplateSignature());
}

TEST(QueryGenTest, SharedFragmentIsStrictlyIdentical) {
  QueryGenerator gen({.seed = 5});
  auto f1 = gen.SharedFragment(0);
  auto f2 = gen.SharedFragment(0);
  EXPECT_EQ(f1->StrictSignature(), f2->StrictSignature());
  auto g = gen.SharedFragment(1);
  EXPECT_NE(f1->StrictSignature(), g->StrictSignature());
}

TEST(QueryGenTest, FragmentsEmbeddedInPlans) {
  QueryGenerator gen({.shared_fragment_fraction = 1.0, .seed = 6});
  // With fraction 1, most templates embed a fragment.
  int with_fragment = 0;
  for (size_t t = 0; t < gen.num_templates(); ++t) {
    auto job = gen.InstantiateTemplate(t);
    if (job.fragment_id >= 0) {
      ++with_fragment;
      // The fragment subplan appears (strictly) inside the job plan.
      auto frag = gen.SharedFragment(job.fragment_id);
      uint64_t frag_sig = frag->StrictSignature();
      bool found = false;
      job.plan->Visit([&](const engine::PlanNode& n) {
        if (n.StrictSignature() == frag_sig) found = true;
      });
      EXPECT_TRUE(found);
    }
  }
  EXPECT_GT(with_fragment, static_cast<int>(gen.num_templates() / 2));
}

TEST(QueryGenTest, PlansCarryTrueCardinalities) {
  QueryGenerator gen({.seed = 7});
  for (int i = 0; i < 50; ++i) {
    auto job = gen.NextJob();
    job.plan->Visit([](const engine::PlanNode& n) {
      EXPECT_GE(n.true_card, 1.0);
    });
  }
}

TEST(QueryGenTest, JobIdsIncrease) {
  QueryGenerator gen({.seed = 8});
  auto a = gen.NextJob();
  auto b = gen.NextJob();
  EXPECT_LT(a.job_id, b.job_id);
}

TEST(ArrivalTest, RatePeaksAtPeakHour) {
  ArrivalProcess ap({.peak_rate_per_hour = 100, .peak_hour = 14.0});
  EXPECT_GT(ap.RateAt(14 * 3600.0), ap.RateAt(2 * 3600.0));
  EXPECT_NEAR(ap.RateAt(14 * 3600.0), 100.0, 1.0);
}

TEST(ArrivalTest, WeekendFactorApplies) {
  ArrivalProcess ap({.weekend_factor = 0.5});
  double weekday = ap.RateAt(2 * 24 * 3600.0 + 12 * 3600.0);  // Wednesday noon
  double weekend = ap.RateAt(5 * 24 * 3600.0 + 12 * 3600.0);  // Saturday noon
  EXPECT_NEAR(weekend, weekday * 0.5, 1e-9);
}

TEST(ArrivalTest, SampleCountTracksIntegratedRate) {
  ArrivalProcess ap({.peak_rate_per_hour = 60, .trough_fraction = 0.5,
                     .weekend_factor = 1.0, .seed = 9});
  auto arrivals = ap.Sample(24 * 3600.0);
  // Mean rate is roughly 60 * (0.5 + 0.5*0.5) = 45/h over 24h = 1080.
  EXPECT_GT(arrivals.size(), 800u);
  EXPECT_LT(arrivals.size(), 1400u);
  // Sorted.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1], arrivals[i]);
  }
}

TEST(PipelineTest, DailyWorkloadHitsPipelinedFraction) {
  PipelineGenerator gen(40, {.pipelined_fraction = 0.7, .seed = 10});
  DailyWorkload day = gen.GenerateDay(500);
  EXPECT_EQ(day.TotalJobs(), 500u);
  EXPECT_NEAR(day.PipelinedFraction(), 0.7, 0.03);
}

TEST(PipelineTest, PipelinesAreAcyclic) {
  PipelineGenerator gen(40, {.seed = 11});
  DailyWorkload day = gen.GenerateDay(300);
  ASSERT_FALSE(day.pipelines.empty());
  for (const PipelineSpec& p : day.pipelines) {
    EXPECT_GE(p.size(), 2u);
    // Every edge goes producer -> consumer with producer index smaller, so
    // index order is a topological order and node 0 is a source.
    for (const auto& [from, to] : p.edges) {
      EXPECT_LT(from, to);
      EXPECT_LT(static_cast<size_t>(to), p.size());
    }
  }
}

TEST(UsageGenTest, PredictableShareNearPaper) {
  auto traces = GenerateUsageTraces(1500, {.seed = 12});
  int predictable_archetypes = 0;
  for (const auto& t : traces) {
    if (t.pattern == UsagePattern::kDiurnal ||
        t.pattern == UsagePattern::kWeekly ||
        t.pattern == UsagePattern::kSteady) {
      ++predictable_archetypes;
    }
    EXPECT_EQ(t.values.size(), 24u * 28u);
  }
  EXPECT_NEAR(predictable_archetypes / 1500.0, 0.77, 0.05);
}

TEST(UsageGenTest, ValuesNonNegative) {
  auto traces = GenerateUsageTraces(50, {.seed = 13});
  for (const auto& t : traces) {
    for (double v : t.values) EXPECT_GE(v, 0.0);
  }
}

TEST(ServerLoadTest, StableServersHaveValleyAtTrueLowHour) {
  auto traces = GenerateServerLoads(50, {.seed = 14});
  for (const auto& t : traces) {
    if (!t.stable) continue;
    // Average by hour of day; the minimum should be at/near true_low_hour.
    std::vector<double> by_hour(24, 0.0);
    std::vector<int> counts(24, 0);
    for (size_t h = 0; h < t.values.size(); ++h) {
      by_hour[h % 24] += t.values[h];
      ++counts[h % 24];
    }
    int best = 0;
    for (int h = 0; h < 24; ++h) {
      by_hour[static_cast<size_t>(h)] /= counts[static_cast<size_t>(h)];
      if (by_hour[static_cast<size_t>(h)] < by_hour[static_cast<size_t>(best)]) {
        best = h;
      }
    }
    int dist = std::min((best - t.true_low_hour + 24) % 24,
                        (t.true_low_hour - best + 24) % 24);
    EXPECT_LE(dist, 1);
  }
}

TEST(CustomerGenTest, TrueSkuCoversNeeds) {
  CustomerGenOptions opt{.seed = 15};
  auto skus = MakeSkuLadder(opt);
  ASSERT_EQ(skus.size(), 5u);
  auto customers = GenerateCustomers(200, skus, opt);
  for (const auto& c : customers) {
    const SkuOffering& sku = skus[static_cast<size_t>(c.true_sku)];
    for (size_t f = 0; f < c.true_needs.size(); ++f) {
      EXPECT_LE(c.true_needs[f], sku.capacity[f] * 1.0001);
    }
    // And no cheaper SKU covers (unless it is already the smallest).
    if (c.true_sku > 0) {
      const SkuOffering& smaller = skus[static_cast<size_t>(c.true_sku) - 1];
      bool fits = true;
      for (size_t f = 0; f < c.true_needs.size(); ++f) {
        if (c.true_needs[f] > smaller.capacity[f]) fits = false;
      }
      EXPECT_FALSE(fits);
    }
    // Measured features sit near the true needs.
    for (size_t f = 0; f < c.features.size(); ++f) {
      EXPECT_NEAR(c.features[f] / c.true_needs[f], 1.0, 0.3);
    }
  }
}

TEST(ResponseSurfaceTest, OptimumIsActuallyOptimal) {
  ResponseSurface surface = MakeRedisSurface(16);
  double at_opt = surface.TrueThroughput(surface.optimum());
  common::Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> config;
    for (const KnobSpec& k : surface.knobs()) {
      config.push_back(rng.Uniform(k.min_value, k.max_value));
    }
    EXPECT_LE(surface.TrueThroughput(config), at_opt + 1e-6);
  }
}

TEST(ResponseSurfaceTest, DefaultIsSuboptimal) {
  ResponseSurface surface = MakeRedisSurface(18);
  EXPECT_LT(surface.TrueThroughput(surface.DefaultConfig()),
            surface.TrueThroughput(surface.optimum()));
}

TEST(ResponseSurfaceTest, LatencyInverseOfThroughput) {
  ResponseSurface surface = MakeSparkSurface(19);
  auto low = surface.DefaultConfig();
  EXPECT_GT(surface.TrueLatency(low),
            surface.TrueLatency(surface.optimum()) - 1e-12);
}

TEST(ResponseSurfaceTest, MeasurementNoiseBounded) {
  ResponseSurface surface = MakeRedisSurface(20);
  surface.set_noise(0.01);
  common::Rng rng(21);
  double truth = surface.TrueThroughput(surface.optimum());
  for (int i = 0; i < 50; ++i) {
    double m = surface.MeasureThroughput(surface.optimum(), rng);
    EXPECT_NEAR(m, truth, truth * 0.06);
  }
}

TEST(ResponseSurfaceTest, ClampRestoresRange) {
  ResponseSurface surface = MakeSparkSurface(22);
  std::vector<double> wild = {1e9, -5.0, 1e9, 2.0};
  auto clamped = surface.Clamp(wild);
  for (size_t i = 0; i < clamped.size(); ++i) {
    EXPECT_GE(clamped[i], surface.knobs()[i].min_value);
    EXPECT_LE(clamped[i], surface.knobs()[i].max_value);
  }
}

}  // namespace
}  // namespace ads::workload
