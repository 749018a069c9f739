// P5 — batched inference kernels: scalar Predict loops vs. the
// cache-friendly PredictBatch kernels vs. PredictBatch fanned out over the
// shared thread pool, for every model family, plus serving p99 under load
// through the threaded runtime (which now serves one PredictBatch call per
// dispatched micro-batch).
//
// Before timing anything the bench ADS_CHECKs that the batched path is
// bit-identical to the scalar path — the property the serving stack and
// the golden traces rely on. A wrong-but-fast kernel fails loudly here.
//
// Output:
//   - human-readable tables on stdout;
//   - machine-readable metrics as JSON (--out=PATH, default BENCH_p5.json);
//   - optional self-gate: --baseline=PATH loads a checked-in JSON and fails
//     (exit 1) if any *_speedup metric listed there regressed by more than
//     2x, or fell below an absolute `min_ratio.<metric>` floor the baseline
//     declares. Only speedup RATIOS are gated — absolute rows/sec depend on
//     the machine, ratios are portable across CI hardware.
//
// `--smoke` shrinks training sets, batch sizes and repetitions for CI.
// `--simd=off|sse|avx2` forces the dispatch tier (clamped to what the CPU
// supports); the active tier is reported in the table and the JSON.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "autonomy/serving.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/model.h"
#include "ml/registry.h"
#include "ml/tree.h"
#include "serve/runtime.h"

using namespace ads;  // NOLINT: bench brevity
using bench::g_metrics;
using bench::Metric;

namespace {

bool g_smoke = false;

double Seconds(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Best-of-reps wall time for `fn`, after one untimed warmup call.
double BestSeconds(int reps, const std::function<void()>& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) best = std::min(best, Seconds(fn));
  return best;
}

constexpr size_t kDims = 8;

ml::Dataset MakeTrainingData(size_t n) {
  common::Rng rng(17);
  ml::Dataset data;
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x(kDims);
    for (double& v : x) v = rng.Uniform(-3.0, 3.0);
    double label =
        x[0] - 0.7 * x[1] * x[1] + 0.4 * x[2] * x[3] + rng.Normal(0.0, 0.25);
    data.Add(std::move(x), label);
  }
  return data;
}

common::Matrix MakeQueries(size_t rows) {
  common::Rng rng(99);
  common::Matrix queries(rows, kDims);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t j = 0; j < kDims; ++j) queries.At(r, j) = rng.Uniform(-4.0, 4.0);
  }
  return queries;
}

std::vector<std::pair<std::string, std::unique_ptr<ml::Regressor>>>
FitModels(const ml::Dataset& data) {
  std::vector<std::pair<std::string, std::unique_ptr<ml::Regressor>>> models;
  models.emplace_back("linear", std::make_unique<ml::LinearRegressor>());
  models.emplace_back(
      "tree", std::make_unique<ml::RegressionTree>(ml::RegressionTreeOptions{
                  .max_depth = 10, .min_samples_leaf = 2}));
  models.emplace_back(
      "forest", std::make_unique<ml::RandomForestRegressor>(
                    ml::RandomForestOptions{
                        .num_trees = g_smoke ? 24u : 40u, .max_depth = 8}));
  models.emplace_back(
      "gbt", std::make_unique<ml::GradientBoostedTrees>(
                 ml::GradientBoostedTreesOptions{
                     .num_rounds = g_smoke ? 40u : 60u, .max_depth = 4}));
  models.emplace_back(
      "mlp", std::make_unique<ml::MlpRegressor>(ml::MlpOptions{
                 .hidden_layers = {32, 32}, .epochs = g_smoke ? 10 : 20}));
  for (auto& [name, model] : models) ADS_CHECK_OK(model->Fit(data));
  return models;
}

/// The bit-identical contract, enforced before any timing: a fast kernel
/// that drifts from scalar Predict must never produce a benchmark number.
void CheckEquivalence(const ml::Regressor& model, const common::Matrix& queries,
                      const std::string& name) {
  std::vector<double> batched;
  model.PredictBatch(queries, &batched);
  std::vector<double> threaded;
  ml::PredictBatchParallel(model, queries, common::ThreadPool::Global(),
                           &threaded);
  for (size_t r = 0; r < queries.rows(); ++r) {
    double scalar = model.Predict(queries.Row(r));
    ADS_CHECK(std::memcmp(&batched[r], &scalar, sizeof(double)) == 0)
        << name << ": batched kernel diverged from scalar at row " << r;
    ADS_CHECK(std::memcmp(&threaded[r], &scalar, sizeof(double)) == 0)
        << name << ": threaded kernel diverged from scalar at row " << r;
  }
}

void RunKernelThroughput() {
  const size_t train_n = g_smoke ? 800 : 1500;
  const size_t rows_target = g_smoke ? 16384 : 131072;
  const int reps = g_smoke ? 3 : 5;
  const std::vector<size_t> batches =
      g_smoke ? std::vector<size_t>{64, 256, 1024}
              : std::vector<size_t>{64, 256, 1024, 4096};

  ml::Dataset data = MakeTrainingData(train_n);
  auto models = FitModels(data);
  common::ThreadPool& pool = common::ThreadPool::Global();

  const char* simd = common::SimdLevelName(common::ActiveSimdLevel());
  common::Table table({"model", "batch", "simd", "scalar Mrows/s",
                       "batched Mrows/s", "threaded Mrows/s", "batched x",
                       "threaded x"});
  for (const auto& [name, model] : models) {
    for (size_t batch : batches) {
      common::Matrix queries = MakeQueries(batch);
      CheckEquivalence(*model, queries, name);
      const size_t iters = std::max<size_t>(1, rows_target / batch);
      const double rows = static_cast<double>(iters * batch);

      std::vector<double> row_buf(kDims);
      std::vector<double> out(batch);
      double scalar_s = BestSeconds(reps, [&]() {
        for (size_t it = 0; it < iters; ++it) {
          for (size_t r = 0; r < batch; ++r) {
            const double* x = queries.RowPtr(r);
            row_buf.assign(x, x + kDims);
            out[r] = model->Predict(row_buf);
          }
        }
      });
      double batched_s = BestSeconds(reps, [&]() {
        for (size_t it = 0; it < iters; ++it) model->PredictBatch(queries, &out);
      });
      double threaded_s = BestSeconds(reps, [&]() {
        for (size_t it = 0; it < iters; ++it) {
          ml::PredictBatchParallel(*model, queries, pool, &out);
        }
      });

      const double scalar_rps = rows / scalar_s;
      const double batched_rps = rows / batched_s;
      const double threaded_rps = rows / threaded_s;
      const std::string key = name + ".b" + std::to_string(batch);
      Metric(key + ".scalar_rps", scalar_rps);
      Metric(key + ".batched_rps", batched_rps);
      Metric(key + ".threaded_rps", threaded_rps);
      Metric(key + ".batched_speedup", batched_rps / scalar_rps);
      Metric(key + ".threaded_speedup", threaded_rps / scalar_rps);
      table.AddRow({name, std::to_string(batch), simd,
                    common::Table::Num(scalar_rps / 1e6, 2),
                    common::Table::Num(batched_rps / 1e6, 2),
                    common::Table::Num(threaded_rps / 1e6, 2),
                    common::Table::Num(batched_rps / scalar_rps, 2),
                    common::Table::Num(threaded_rps / scalar_rps, 2)});
    }
  }
  std::printf("%zu-dim features, best of %d reps, ~%zu rows per measurement, "
              "threaded = PredictBatchParallel on the global pool\n",
              kDims, reps, rows_target);
  table.Print("P5.1 | inference kernels: scalar vs. batched vs. "
              "batched+threaded rows/sec");
}

void RunServingTail() {
  // Load the threaded serving runtime with a forest backend: every
  // micro-batch is served by one PredictBatch call. Requests are submitted
  // as fast as the runtime accepts them (unbounded queue, no deadlines),
  // so the measured p99 includes queueing — "under load" by construction.
  const size_t requests = g_smoke ? 2000 : 20000;
  ml::Dataset data = MakeTrainingData(g_smoke ? 600 : 1200);
  ml::RandomForestRegressor forest(
      ml::RandomForestOptions{.num_trees = g_smoke ? 24u : 40u, .max_depth = 8});
  ADS_CHECK_OK(forest.Fit(data));

  ml::ModelRegistry registry;
  registry.Register("forest", forest.Serialize());
  ADS_CHECK_OK(registry.Deploy("forest", 1));
  autonomy::ResilientModelServer backend(
      &registry, "forest",
      [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; });

  serve::CoreOptions core;
  core.queue_capacity = std::numeric_limits<size_t>::max();
  core.batcher = {.max_batch_size = 64, .max_linger_seconds = 0.0005};
  serve::ServingRuntime runtime(core, &common::ThreadPool::Global());
  runtime.RegisterBackend("forest", &backend);
  runtime.Start();

  common::Rng rng(7);
  double wall = Seconds([&]() {
    for (size_t i = 0; i < requests; ++i) {
      serve::Request request;
      request.id = i;
      request.model = "forest";
      request.tenant = "bench";
      request.features.resize(kDims);
      for (double& v : request.features) v = rng.Uniform(-4.0, 4.0);
      ADS_CHECK_OK(runtime.Submit(std::move(request), nullptr));
    }
    runtime.Shutdown();
  });
  serve::ServingStats stats = runtime.Stats();
  ADS_CHECK(stats.counters.served == requests) << "lossy drain";

  const double rps = static_cast<double>(requests) / wall;
  Metric("serving.forest.throughput_rps", rps);
  Metric("serving.forest.p50_ms", stats.latency.p50 * 1e3);
  Metric("serving.forest.p99_ms", stats.latency.p99 * 1e3);
  Metric("serving.forest.mean_batch", stats.batch_size.mean());
  common::Table table(
      {"requests", "throughput rps", "mean batch", "p50 (ms)", "p99 (ms)"});
  table.AddRow({std::to_string(requests), common::Table::Num(rps, 0),
                common::Table::Num(stats.batch_size.mean(), 1),
                common::Table::Num(stats.latency.p50 * 1e3, 2),
                common::Table::Num(stats.latency.p99 * 1e3, 2)});
  table.Print("P5.2 | serving under load: threaded runtime, one "
              "PredictBatch per micro-batch (latency includes queueing)");
}

/// Minimal scan for "key": number pairs — enough for the flat metric JSON
/// this bench writes; no external parser dependencies.
std::vector<std::pair<std::string, double>> ParseMetrics(
    const std::string& text) {
  std::vector<std::pair<std::string, double>> metrics;
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    size_t close = text.find('"', i + 1);
    if (close == std::string::npos) break;
    std::string key = text.substr(i + 1, close - i - 1);
    i = close + 1;
    while (i < text.size() && (text[i] == ' ' || text[i] == ':')) ++i;
    if (i < text.size() &&
        (std::isdigit(static_cast<unsigned char>(text[i])) ||
         text[i] == '-' || text[i] == '+')) {
      metrics.emplace_back(key, std::strtod(text.c_str() + i, nullptr));
    }
  }
  return metrics;
}

/// Gate: every *_speedup metric named in the baseline must be at least
/// half its baseline value, AND at least any absolute `min_ratio.<metric>`
/// floor the baseline declares. The relative check catches regressions
/// against the last re-baseline; the floors encode the gains this bench
/// exists to protect (e.g. mlp batched >= 2x) so a quiet re-baseline can
/// never ratchet them away. Returns the number of violations.
int CheckAgainstBaseline(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  ADS_CHECK(f != nullptr) << "cannot read baseline " << path;
  std::string text;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);

  const auto baseline_metrics = ParseMetrics(text);
  constexpr char kFloorPrefix[] = "min_ratio.";
  constexpr size_t kFloorPrefixLen = sizeof(kFloorPrefix) - 1;
  auto floor_for = [&](const std::string& key) {
    for (const auto& [name, value] : baseline_metrics) {
      if (name.size() == kFloorPrefixLen + key.size() &&
          name.compare(0, kFloorPrefixLen, kFloorPrefix) == 0 &&
          name.compare(kFloorPrefixLen, key.size(), key) == 0) {
        return value;
      }
    }
    return 0.0;
  };
  auto current_for = [&](const std::string& key) {
    for (const auto& [name, value] : g_metrics) {
      if (name == key) return value;
    }
    return -1.0;
  };

  int failures = 0;
  std::printf("\nP5 gate | current speedup >= baseline / 2 and >= floor\n");
  for (const auto& [key, expected] : ParseMetrics(text)) {
    if (key.size() < 8 || key.substr(key.size() - 8) != "_speedup") continue;
    if (key.compare(0, kFloorPrefixLen, kFloorPrefix) == 0) continue;
    const double current = current_for(key);
    if (current < 0.0) {
      std::printf("  MISSING %-38s baseline %.2f\n", key.c_str(), expected);
      ++failures;
      continue;
    }
    const double floor = floor_for(key);
    const bool ok = current >= expected / 2.0 && current >= floor;
    if (floor > 0.0) {
      std::printf("  %-7s %-38s current %.2fx vs baseline %.2fx, floor %.2fx\n",
                  ok ? "ok" : "REGRESS", key.c_str(), current, expected, floor);
    } else {
      std::printf("  %-7s %-38s current %.2fx vs baseline %.2fx\n",
                  ok ? "ok" : "REGRESS", key.c_str(), current, expected);
    }
    if (!ok) ++failures;
  }
  // A floor whose metric the baseline forgot to list must still bind.
  for (const auto& [key, floor] : baseline_metrics) {
    if (key.compare(0, kFloorPrefixLen, kFloorPrefix) != 0) continue;
    const std::string metric = key.substr(kFloorPrefixLen);
    bool listed = false;
    for (const auto& [name, value] : baseline_metrics) {
      (void)value;
      if (name == metric) {
        listed = true;
        break;
      }
    }
    if (listed) continue;  // already checked above
    const double current = current_for(metric);
    const bool ok = current >= floor;
    std::printf("  %-7s %-38s current %.2fx vs floor %.2fx\n",
                ok ? "ok" : "REGRESS", metric.c_str(), current, floor);
    if (!ok) ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_p5.json";
  std::string baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) baseline = argv[i] + 11;
    if (std::strncmp(argv[i], "--simd=", 7) == 0) {
      // Same spelling and clamping as the ADS_SIMD env override.
      common::SetSimdLevel(common::ResolveSimdLevel(argv[i] + 7,
                                                    common::DetectCpuLevel()));
    }
  }
  std::printf("P5 | batched inference bench%s, simd=%s\n\n",
              g_smoke ? " (smoke)" : "",
              common::SimdLevelName(common::ActiveSimdLevel()));
  RunKernelThroughput();
  std::printf("\n");
  RunServingTail();
  bench::WriteJson(out, "bench_p5_inference", g_smoke);
  if (!baseline.empty()) {
    int failures = CheckAgainstBaseline(baseline);
    if (failures > 0) {
      std::printf("P5 gate FAILED: %d metric(s) regressed more than 2x or "
                  "fell below a floor\n",
                  failures);
      return 1;
    }
    std::printf("P5 gate passed\n");
  }
  return 0;
}
