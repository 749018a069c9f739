// Property test for the batched inference kernels: for every model family,
// PredictBatch must match row-wise Predict BIT-FOR-BIT — not approximately.
// The serving stack swaps per-request Predict calls for one PredictBatch
// per micro-batch on the strength of this guarantee; any drift would
// invalidate golden traces and seed benchmarks. Chunked parallel execution
// (PredictBatchParallel) must also be invariant to pool size and grain.
//
// CI runs this binary under ADS_THREADS=1 and ADS_THREADS=4 so the
// ThreadPool::Global() case covers both sizings.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/flat_tree.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/tree.h"

namespace ads::ml {
namespace {

/// Exact bit comparison: catches sign-of-zero and last-ulp divergence that
/// EXPECT_DOUBLE_EQ would wave through.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Dataset MakeTrainingData(uint64_t seed, size_t n, size_t d) {
  common::Rng rng(seed);
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x(d);
    for (size_t j = 0; j < d; ++j) x[j] = rng.Uniform(-3.0, 3.0);
    double label = 0.5 * x[0] - 1.3 * x[1] * x[1] + x[2 % d] * x[(d - 1)] +
                   rng.Normal(0.0, 0.3);
    data.Add(std::move(x), label);
  }
  return data;
}

common::Matrix MakeQueries(uint64_t seed, size_t n, size_t d) {
  common::Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  common::Matrix queries(n, d);
  for (size_t r = 0; r < n; ++r) {
    // Wider range than training so tree traversals also hit edge leaves.
    for (size_t j = 0; j < d; ++j) queries.At(r, j) = rng.Uniform(-5.0, 5.0);
  }
  return queries;
}

std::vector<std::pair<std::string, std::unique_ptr<Regressor>>> FitAllFamilies(
    const Dataset& data, uint64_t seed) {
  std::vector<std::pair<std::string, std::unique_ptr<Regressor>>> models;
  models.emplace_back("linear", std::make_unique<LinearRegressor>());
  models.emplace_back("tree", std::make_unique<RegressionTree>(
                                  RegressionTreeOptions{.max_depth = 6}));
  models.emplace_back(
      "forest",
      std::make_unique<RandomForestRegressor>(RandomForestOptions{
          .num_trees = 12, .max_depth = 5, .seed = seed,
          .pool = &common::ThreadPool::Serial()}));
  models.emplace_back("gbt", std::make_unique<GradientBoostedTrees>(
                                 GradientBoostedTreesOptions{
                                     .num_rounds = 15, .max_depth = 3,
                                     .seed = seed}));
  models.emplace_back(
      "mlp", std::make_unique<MlpRegressor>(MlpOptions{
                 .hidden_layers = {8, 4}, .epochs = 15, .seed = seed}));
  for (auto& [name, model] : models) {
    auto status = model->Fit(data);
    EXPECT_TRUE(status.ok()) << name << ": " << status.ToString();
  }
  return models;
}

TEST(PredictBatchPropertyTest, BatchedMatchesScalarBitForBit) {
  common::ThreadPool four_workers(4);
  for (uint64_t seed : {1ull, 7ull, 1234ull}) {
    Dataset data = MakeTrainingData(seed, /*n=*/200, /*d=*/5);
    // 311 rows: not a multiple of the tree kernel's 64-row block, so the
    // ragged tail block is exercised every run.
    common::Matrix queries = MakeQueries(seed, /*n=*/311, /*d=*/5);
    for (const auto& [name, model] : FitAllFamilies(data, seed)) {
      std::vector<double> scalar(queries.rows());
      for (size_t r = 0; r < queries.rows(); ++r) {
        scalar[r] = model->Predict(queries.Row(r));
      }
      // Serial batched kernel.
      std::vector<double> batched;
      model->PredictBatch(queries, &batched);
      ASSERT_EQ(batched.size(), scalar.size()) << name;
      for (size_t r = 0; r < scalar.size(); ++r) {
        ASSERT_TRUE(BitEqual(batched[r], scalar[r]))
            << name << " seed=" << seed << " row=" << r << ": "
            << batched[r] << " vs " << scalar[r];
      }
      // Chunked over pools of different sizes and grains: results must not
      // depend on how rows are split across workers (including the
      // inline-execution Serial pool and the env-sized Global pool).
      struct PoolCase {
        common::ThreadPool* pool;
        const char* label;
      };
      const PoolCase pools[] = {
          {&common::ThreadPool::Serial(), "serial"},
          {&four_workers, "four"},
          {&common::ThreadPool::Global(), "global"},
      };
      for (const PoolCase& pc : pools) {
        for (size_t grain : {1ul, 7ul, 64ul, 1000ul}) {
          std::vector<double> parallel;
          PredictBatchParallel(*model, queries, *pc.pool, &parallel, grain);
          ASSERT_EQ(parallel.size(), scalar.size());
          for (size_t r = 0; r < scalar.size(); ++r) {
            ASSERT_TRUE(BitEqual(parallel[r], scalar[r]))
                << name << " seed=" << seed << " pool=" << pc.label
                << " grain=" << grain << " row=" << r;
          }
        }
      }
    }
  }
}

TEST(PredictBatchPropertyTest, EmptyBatchIsANoOp) {
  Dataset data = MakeTrainingData(5, 80, 3);
  common::Matrix empty(0, 0);
  for (const auto& [name, model] : FitAllFamilies(data, 5)) {
    std::vector<double> out = {1.0, 2.0};  // stale contents must be cleared
    model->PredictBatch(empty, &out);
    EXPECT_TRUE(out.empty()) << name;
  }
}

TEST(PredictBatchPropertyTest, EverySimdTierMatchesScalarBitForBit) {
  // The PR 6 extension of the property: the batched kernels now dispatch
  // between scalar/SSE/AVX2 tiers at runtime, and every tier available on
  // this machine must reproduce the scalar Predict walk bit-for-bit. CI
  // additionally runs the whole binary under ADS_SIMD=off, but this test
  // sweeps the tiers in-process so one run compares them directly.
  const common::SimdLevel prior = common::ActiveSimdLevel();
  const common::SimdLevel detected = common::DetectCpuLevel();
  Dataset data = MakeTrainingData(21, /*n=*/200, /*d=*/5);
  common::Matrix queries = MakeQueries(21, /*n=*/311, /*d=*/5);
  for (const auto& [name, model] : FitAllFamilies(data, 21)) {
    std::vector<double> scalar(queries.rows());
    for (size_t r = 0; r < queries.rows(); ++r) {
      scalar[r] = model->Predict(queries.Row(r));
    }
    for (common::SimdLevel level :
         {common::SimdLevel::kScalar, common::SimdLevel::kSse,
          common::SimdLevel::kAvx2}) {
      if (static_cast<int>(level) > static_cast<int>(detected)) continue;
      ASSERT_EQ(common::SetSimdLevel(level), level);
      std::vector<double> batched;
      model->PredictBatch(queries, &batched);
      ASSERT_EQ(batched.size(), scalar.size()) << name;
      for (size_t r = 0; r < scalar.size(); ++r) {
        ASSERT_TRUE(BitEqual(batched[r], scalar[r]))
            << name << " simd=" << common::SimdLevelName(level)
            << " row=" << r << ": " << batched[r] << " vs " << scalar[r];
      }
    }
  }
  common::SetSimdLevel(prior);
}

TEST(PredictBatchPropertyTest, KernelBuffersAreCacheLineAligned) {
  // The SIMD kernels assume their backing stores start on a cache line:
  // the flat-tree node arena and the MLP's packed weight panels live in
  // AlignedBuffers precisely so lane loads never split lines.
  auto aligned = [](const void* p) {
    return reinterpret_cast<uintptr_t>(p) % 64 == 0;
  };
  Dataset data = MakeTrainingData(31, 150, 4);

  RegressionTree tree(RegressionTreeOptions{.max_depth = 6});
  ASSERT_TRUE(tree.Fit(data).ok());
  FlatTreeEnsemble flat = FlatTreeEnsemble::FromTree(tree);
  EXPECT_TRUE(aligned(flat.arena_data()));
  EXPECT_GT(flat.arena_bytes(), 0u);

  MlpRegressor mlp(MlpOptions{.hidden_layers = {8, 4}, .epochs = 2});
  ASSERT_TRUE(mlp.Fit(data).ok());
  EXPECT_TRUE(aligned(mlp.packed_weights_data()));
  EXPECT_GE(mlp.max_layer_width(), 8u);
}

TEST(PredictBatchPropertyTest, DeserializedModelsKeepTheGuarantee) {
  // The serving path predicts through models rehydrated from the registry;
  // the bit-identical property must survive a serialize/deserialize trip.
  Dataset data = MakeTrainingData(11, 150, 4);
  common::Matrix queries = MakeQueries(11, 97, 4);
  for (const auto& [name, model] : FitAllFamilies(data, 11)) {
    auto revived = DeserializeRegressor(model->Serialize());
    ASSERT_TRUE(revived.ok()) << name;
    std::vector<double> batched;
    (*revived)->PredictBatch(queries, &batched);
    for (size_t r = 0; r < queries.rows(); ++r) {
      ASSERT_TRUE(BitEqual(batched[r], (*revived)->Predict(queries.Row(r))))
          << name << " row=" << r;
    }
  }
}

}  // namespace
}  // namespace ads::ml
