// serve_forest: the threaded serving path end to end.
//
// A ServingRuntime with one ResilientModelServer backend over a 40-tree,
// depth-8 random forest on 8 features (the P5.2 shape). One tenant, a
// bounded queue, no deadlines. One generator thread (this one) runs:
//  - paced: an open loop of seeded Poisson arrivals at kPacedRps, far below
//    capacity; latency runs from when a request was *due* to its callback,
//    so a generator stall counts against every request it delays;
//  - saturated: a closed loop holding kWindow requests outstanding, below
//    the queue capacity so nothing is refused, in fixed-size episodes on a
//    fresh runtime each; throughput is the median episode's requests served
//    per wall-second.

#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <semaphore>
#include <stdexcept>
#include <string>
#include <vector>

#include "autonomy/serving.h"
#include "checks.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/dataset.h"
#include "ml/forest.h"
#include "ml/registry.h"
#include "serve/runtime.h"
#include "trace.h"
#include "workloads.h"

namespace ads::perfbench {
namespace {

constexpr size_t kDims = 8;
constexpr size_t kTrees = 40;
constexpr int kDepth = 8;
constexpr size_t kTrainRows = 1200;
constexpr size_t kFeatureRows = 4096;
constexpr double kPacedRps = 2000.0;
constexpr size_t kWindow = 256;
constexpr size_t kQueueCapacity = 1024;
constexpr size_t kMaxBatch = 64;
constexpr double kLingerSeconds = 0.0005;
/// Requests per saturated episode (about half a second at full rate).
constexpr uint64_t kEpisodeRequests = uint64_t{1} << 17;
/// Saturated requests traced: one in this many (keeps the trace bounded
/// while sampling the whole phase, not just its start).
constexpr uint64_t kSaturatedTraceStride = 256;

struct Backend {
  ml::RandomForestRegressor forest{ml::RandomForestOptions{
      .num_trees = kTrees, .max_depth = kDepth}};
  ml::ModelRegistry registry;
  std::unique_ptr<autonomy::ResilientModelServer> server;
};

std::unique_ptr<Backend> FitBackend(uint64_t seed) {
  common::Rng rng(seed);
  ml::Dataset data;
  for (size_t i = 0; i < kTrainRows; ++i) {
    std::vector<double> x(kDims);
    for (double& v : x) v = rng.Uniform(-3.0, 3.0);
    const double label =
        x[0] - 0.7 * x[1] * x[1] + 0.4 * x[2] * x[3] + rng.Normal(0.0, 0.25);
    data.Add(std::move(x), label);
  }
  auto backend = std::make_unique<Backend>();
  common::Status fit = backend->forest.Fit(data);
  if (!fit.ok()) throw std::runtime_error("forest fit: " + fit.ToString());
  backend->registry.Register("forest", backend->forest.Serialize());
  common::Status deploy = backend->registry.Deploy("forest", 1);
  if (!deploy.ok()) throw std::runtime_error("deploy: " + deploy.ToString());
  backend->server = std::make_unique<autonomy::ResilientModelServer>(
      &backend->registry, "forest",
      [](const std::vector<double>& f) { return f.empty() ? 0.0 : f[0]; });
  return backend;
}

std::unique_ptr<serve::ServingRuntime> StartRuntime(Backend* backend) {
  serve::CoreOptions core;
  core.queue_capacity = kQueueCapacity;
  core.batcher = {.max_batch_size = kMaxBatch,
                  .max_linger_seconds = kLingerSeconds};
  auto runtime = std::make_unique<serve::ServingRuntime>(
      core, &common::ThreadPool::Global());
  runtime->RegisterBackend("forest", backend->server.get());
  runtime->Start();
  return runtime;
}

/// What one phase observed. Callbacks run on pool workers (or inline on the
/// generator for rejections), so shared counters are atomic and per-request
/// slots are written by exactly one callback.
struct Phase {
  const PredictionOracle* oracle = nullptr;
  TraceSession* trace = nullptr;
  std::atomic<uint64_t> served{0};
  std::atomic<uint64_t> wrong{0};
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> shed{0};
  /// Rows served in batches of each size (index = batch size).
  std::array<std::atomic<uint64_t>, kMaxBatch + 1> rows_by_batch{};
  /// Paced phase only: callback time and runtime-reported latency per
  /// served request id (0 for a request that was not served).
  std::vector<double> callback_at;
  std::vector<double> runtime_latency;
  /// Saturated phase only: the closed loop's outstanding window.
  std::counting_semaphore<kWindow> window{kWindow};
  bool closed_loop = false;

  Samples submit_seconds;
  /// Saturated phase only: served requests per second of each episode.
  Samples episode_rps;
  uint64_t sent = 0;
  double wall_seconds = 0.0;
  uint64_t batches = 0;
  uint64_t pool_tasks = 0;

  uint64_t failed() const { return wrong + rejected + shed; }
};

serve::ServingRuntime::Callback MakeCallback(Phase* phase, uint64_t id,
                                             telemetry::SpanId root) {
  return [phase, id, root](const serve::Response& response) {
    const double entered = Now();
    switch (response.outcome) {
      case serve::Outcome::kServed:
        if (phase->oracle->Matches(id % phase->oracle->size(),
                                   response.value)) {
          phase->served.fetch_add(1, std::memory_order_relaxed);
        } else {
          phase->wrong.fetch_add(1, std::memory_order_relaxed);
        }
        phase->rows_by_batch[std::min(response.batch_size, kMaxBatch)]
            .fetch_add(1, std::memory_order_relaxed);
        break;
      case serve::Outcome::kShedCapacity:
      case serve::Outcome::kShedDeadline:
        phase->shed.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        phase->rejected.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    if (!phase->callback_at.empty() &&
        response.outcome == serve::Outcome::kServed) {
      phase->callback_at[id] = entered;
      phase->runtime_latency[id] = response.latency_seconds;
    }
    if (root != telemetry::kNoSpan) {
      const double left = Now();
      phase->trace->Child("callback", root, entered, left);
      phase->trace->End(root, left);
    }
    if (phase->closed_loop) phase->window.release();
  };
}

serve::Request MakeRequest(const PredictionOracle& oracle, uint64_t id) {
  serve::Request request;
  request.id = id;
  request.model = "forest";
  request.tenant = "bench";
  request.features = oracle.features(id % oracle.size());
  return request;
}

/// Submits one request and records the time inside Submit.
void Send(serve::ServingRuntime* runtime, Phase* phase, uint64_t id,
          double due, bool traced) {
  serve::Request request = MakeRequest(*phase->oracle, id);
  const telemetry::SpanId root =
      traced ? phase->trace->Root("request", due) : telemetry::kNoSpan;
  const double before = Now();
  (void)runtime->Submit(std::move(request), MakeCallback(phase, id, root));
  const double after = Now();
  phase->submit_seconds.Add(after - before);
  if (root != telemetry::kNoSpan) {
    phase->trace->Child("Submit", root, before, after);
  }
  ++phase->sent;
}

/// Drains `runtime` and adds its batch and pool-task counts to `phase`.
/// Returns the seconds since `start`.
double Drain(serve::ServingRuntime* runtime, Phase* phase, double start,
             uint64_t pool_tasks_before) {
  runtime->Shutdown();
  const double seconds = Now() - start;
  phase->wall_seconds += seconds;
  phase->batches += runtime->Stats().batch_size.count();
  phase->pool_tasks +=
      common::ThreadPool::Global().Stats().executed - pool_tasks_before;
  return seconds;
}

struct PacedResult {
  Samples latency;   // due -> callback, seconds
  Samples lateness;  // due -> Submit call, seconds
  Samples runtime_latency;
};

PacedResult RunPaced(serve::ServingRuntime* runtime, Phase* phase,
                     double seconds, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> due;
  for (double t = rng.Exponential(kPacedRps); t < seconds;
       t += rng.Exponential(kPacedRps)) {
    due.push_back(t);
  }
  phase->callback_at.assign(due.size(), 0.0);
  phase->runtime_latency.assign(due.size(), 0.0);
  PacedResult result;
  const uint64_t tasks = common::ThreadPool::Global().Stats().executed;
  const double start = Now() + 0.001;
  for (size_t i = 0; i < due.size(); ++i) {
    const double at = start + due[i];
    SleepUntil(at);
    result.lateness.Add(Now() - at);
    Send(runtime, phase, i, at, phase->trace != nullptr);
  }
  Drain(runtime, phase, start, tasks);
  for (size_t i = 0; i < due.size(); ++i) {
    if (phase->callback_at[i] == 0.0) continue;  // counted as failed
    result.latency.Add(phase->callback_at[i] - (start + due[i]));
    result.runtime_latency.Add(phase->runtime_latency[i]);
  }
  return result;
}

/// Closed-loop episodes of kEpisodeRequests, each on a fresh runtime, until
/// `seconds` have passed (at least one). The runtime keeps every latency
/// sample it serves, so a fixed episode size keeps memory independent of
/// the rate reached.
void RunSaturated(Backend* backend, Phase* phase, double seconds) {
  phase->closed_loop = true;
  const double stop = Now() + seconds;
  uint64_t sent = 0;
  do {
    std::unique_ptr<serve::ServingRuntime> runtime = StartRuntime(backend);
    const uint64_t served_before = phase->served;
    const uint64_t tasks = common::ThreadPool::Global().Stats().executed;
    const double start = Now();
    for (uint64_t id = 0; id < kEpisodeRequests; ++id, ++sent) {
      phase->window.acquire();
      Send(runtime.get(), phase, id, Now(),
           phase->trace != nullptr && sent % kSaturatedTraceStride == 0);
    }
    const double seconds_taken = Drain(runtime.get(), phase, start, tasks);
    phase->episode_rps.Add(
        static_cast<double>(phase->served - served_before) / seconds_taken);
  } while (Now() < stop);
}

void CountOps(const std::string& name, const Phase& phase, Report* report) {
  report->Ops("serve_forest." + name, phase.sent, phase.served,
              phase.failed());
  if (phase.wrong > 0) {
    report->CheckFailed(std::to_string(phase.wrong.load()) +
                        " served predictions differ from scalar Predict (" +
                        name + ")");
  }
}

double SaturatedRps(const Phase& phase) {
  return phase.episode_rps.Quantile(0.5);
}

/// Replays PredictBatch on batches of the sizes the saturated phase formed
/// and returns the summed kernel seconds. Each call is a traced span.
double ReplayBatches(const Phase& phase, Backend* backend,
                     const PredictionOracle& oracle, TraceSession* trace,
                     Report* report) {
  const telemetry::SpanId root = trace->Root("replay", Now());
  double kernel_seconds = 0.0;
  uint64_t rows = 0;
  uint64_t wrong = 0;
  uint64_t next_row = 0;
  std::vector<autonomy::ResilientModelServer::ServeResult> out;
  for (size_t size = 1; size <= kMaxBatch; ++size) {
    const uint64_t batches = phase.rows_by_batch[size] / size;
    common::Matrix features(size, kDims);
    for (uint64_t b = 0; b < batches; ++b) {
      const uint64_t first = next_row;
      for (size_t r = 0; r < size; ++r) {
        const std::vector<double>& row =
            oracle.features(next_row++ % oracle.size());
        for (size_t j = 0; j < kDims; ++j) features.At(r, j) = row[j];
      }
      const double before = Now();
      backend->server->PredictBatch(features, 0.0, &out);
      const double after = Now();
      kernel_seconds += after - before;
      trace->Child("PredictBatch", root, before, after);
      for (size_t r = 0; r < size; ++r) {
        wrong += !oracle.Matches((first + r) % oracle.size(), out[r].value);
      }
      rows += size;
    }
  }
  trace->End(root, Now());
  if (wrong > 0) {
    report->CheckFailed(std::to_string(wrong) +
                        " replayed predictions differ from scalar Predict");
  }
  report->Set("ml.predict_batch_us_per_row",
              rows == 0 ? 0.0
                        : kernel_seconds / static_cast<double>(rows) * 1e6);
  return kernel_seconds;
}

}  // namespace

void RunServeForest(const RunOptions& options, Report* report) {
  const double phase_seconds = options.seconds / (options.trace ? 4.0 : 2.0);
  report->Env("rate_rps", kPacedRps);
  report->Env("window", static_cast<double>(kWindow));
  report->Env("queue_capacity", static_cast<double>(kQueueCapacity));
  report->Env("max_batch", static_cast<double>(kMaxBatch));
  report->Env("phase_seconds", phase_seconds);

  // Set-up: forest fit plus runtime start, repeated; the median is setup_s.
  const int repeats = options.trace || options.smoke ? 1 : 3;
  Samples setup;
  std::unique_ptr<Backend> backend;
  std::unique_ptr<serve::ServingRuntime> runtime;
  for (int i = 0; i < repeats; ++i) {
    runtime.reset();
    backend.reset();
    const double start = Now();
    backend = FitBackend(options.seed);
    runtime = StartRuntime(backend.get());
    setup.Add(Now() - start);
  }
  report->Set("setup_s", setup.Quantile(0.5));
  const PredictionOracle oracle(backend->forest, kFeatureRows, kDims,
                                options.seed + 1);

  // Untraced phases: the end-to-end metrics, and the base the traced
  // phases' overhead is measured against.
  Phase paced;
  paced.oracle = &oracle;
  const PacedResult paced_result =
      RunPaced(runtime.get(), &paced, phase_seconds, options.seed + 2);
  CountOps("paced", paced, report);
  runtime.reset();
  Phase saturated;
  saturated.oracle = &oracle;
  RunSaturated(backend.get(), &saturated, phase_seconds);
  CountOps("saturated", saturated, report);
  const double paced_p50 = paced_result.latency.Quantile(0.5);
  report->Set("latency_ms", paced_p50 * 1e3);
  report->Set("ops_per_s", SaturatedRps(saturated));
  std::printf("serve_forest: paced p50 %.4f ms over %zu samples, "
              "saturated %.0f req/s (median of %zu episodes)\n",
              paced_p50 * 1e3, paced_result.latency.seen(),
              SaturatedRps(saturated), saturated.episode_rps.seen());
  if (!options.trace) {
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  // Traced phases: the per-layer numbers.
  TraceSession trace;
  Phase traced_paced;
  traced_paced.oracle = &oracle;
  traced_paced.trace = &trace;
  runtime = StartRuntime(backend.get());
  const PacedResult traced_result =
      RunPaced(runtime.get(), &traced_paced, phase_seconds, options.seed + 2);
  CountOps("paced_traced", traced_paced, report);
  runtime.reset();
  Phase traced_saturated;
  traced_saturated.oracle = &oracle;
  traced_saturated.trace = &trace;
  RunSaturated(backend.get(), &traced_saturated, phase_seconds);
  CountOps("saturated_traced", traced_saturated, report);

  report->TraceOverhead(SaturatedRps(saturated),
                        SaturatedRps(traced_saturated), paced_p50,
                        traced_result.latency.Quantile(0.5));

  const Samples& submit = traced_saturated.submit_seconds;
  const Samples& latency = traced_result.latency;
  report->Set("serve.submit_us_p50", submit.Quantile(0.5) * 1e6);
  report->Set("serve.submit_us_p99", submit.Quantile(0.99) * 1e6);
  report->Set("serve.runtime_latency_p50_ms",
              traced_result.runtime_latency.Quantile(0.5) * 1e3);
  report->Set("serve.paced_p99_ms", latency.Quantile(0.99) * 1e3);
  report->Set("serve.paced_p999_ms", latency.Quantile(0.999) * 1e3);
  report->Set("serve.paced_samples", static_cast<double>(latency.seen()));
  report->Set("serve.generator_late_ms_p99",
              traced_result.lateness.Quantile(0.99) * 1e3);
  report->Set("serve.generator_late_ms_max",
              traced_result.lateness.Max() * 1e3);
  const auto per_batch = [](uint64_t count, uint64_t batches) {
    return static_cast<double>(count) /
           static_cast<double>(std::max<uint64_t>(batches, 1));
  };
  report->Set("serve.batches", static_cast<double>(traced_saturated.batches));
  report->Set("serve.batch_mean",
              per_batch(traced_saturated.served, traced_saturated.batches));
  report->Set("common.pool.tasks_per_batch",
              per_batch(traced_paced.pool_tasks, traced_paced.batches));
  for (const auto& [name, phase] :
       {std::pair<const char*, const Phase*>{"paced", &traced_paced},
        {"saturated", &traced_saturated}}) {
    const std::string prefix = std::string("serve.") + name + ".";
    report->Set(prefix + "sent", static_cast<double>(phase->sent));
    report->Set(prefix + "served", static_cast<double>(phase->served));
    report->Set(prefix + "rejected", static_cast<double>(phase->rejected));
    report->Set(prefix + "shed", static_cast<double>(phase->shed));
  }

  const double kernel_seconds =
      ReplayBatches(traced_saturated, backend.get(), oracle, &trace, report);
  report->Set("ml.predict_busy_share",
              kernel_seconds / traced_saturated.wall_seconds);
  trace.AddMetrics("request", report);
  trace.Write(".bench_out/trace_serve_forest.json");
}

}  // namespace ads::perfbench
