// scenario_pack: the virtual-time simulator end to end.
//
// StandardScenarios(kScale) under DefaultBlueprint(), spec seeds derived
// from the benchmark seed. Each scenario runs through RunScenario serially
// on this thread; the pack repeats for the run's duration. The rate is
// virtual requests per wall-second. It falls as runs get longer, so the
// scale is fixed (and stamped).
//
// Times are taken from each scenario's fastest run. RunScenario is
// deterministic for a spec (checked: two runs give byte-identical
// Metrics()), single-threaded and free of I/O, so every repetition does the
// same work and the differences between them are interference from other
// tenants of the host; the fastest repetition is the least disturbed.
// README.md records the spread across runs of each estimator tried.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "common/rng.h"
#include "common/stats.h"
#include "scenario/scenario.h"
#include "trace.h"
#include "workloads.h"

namespace ads::perfbench {
namespace {

constexpr size_t kScale = 2;
constexpr size_t kSmokeScale = 1;
/// Spec builds per run; the median is setup_s (one build takes microseconds).
constexpr int kSetupRepeats = 1001;

std::vector<scenario::ScenarioSpec> BuildSpecs(size_t scale, uint64_t seed) {
  std::vector<scenario::ScenarioSpec> specs =
      scenario::StandardScenarios(scale);
  common::Rng rng(seed);
  for (scenario::ScenarioSpec& spec : specs) {
    spec.seed = static_cast<uint64_t>(
        rng.UniformInt(1, std::numeric_limits<int32_t>::max()));
  }
  return specs;
}

struct PackLoop {
  uint64_t runs = 0;
  uint64_t failed = 0;
  uint64_t packs = 0;
  uint64_t virtual_requests = 0;
  Samples pack_seconds;
  std::vector<Samples> scenario_seconds;

  /// Virtual requests of one pack over the sum of each scenario's fastest
  /// run. Taken per scenario, a quiet stretch of the host as short as one
  /// scenario run (50-300 ms) counts; the fastest whole pack needs one as
  /// long as the pack.
  double vreq_per_s() const {
    double fastest_pack_seconds = 0.0;
    for (const Samples& s : scenario_seconds) {
      fastest_pack_seconds += s.Quantile(0.0);
    }
    return static_cast<double>(virtual_requests) /
           static_cast<double>(packs) / fastest_pack_seconds;
  }
  /// Geometric mean over scenarios of the fastest run's wall time.
  double scenario_seconds_gmean() const {
    return GeometricMeanOfQuantile(scenario_seconds, 0.0);
  }
};

class PackRunner {
 public:
  PackRunner(const std::vector<scenario::ScenarioSpec>* specs,
             scenario::Blueprint blueprint, Report* report)
      : specs_(specs), blueprint_(blueprint), report_(report) {}

  /// Whole packs (at least one) until `seconds` have passed. Every report
  /// is checked against its ledger invariants and against the first report
  /// of the same spec (two runs of one spec must be byte-identical).
  PackLoop Run(double seconds, TraceSession* trace) {
    PackLoop loop;
    loop.scenario_seconds.resize(specs_->size());
    const double stop = Now() + seconds;
    do {
      const double pack_start = Now();
      for (size_t i = 0; i < specs_->size(); ++i) RunOne(i, trace, &loop);
      loop.pack_seconds.Add(Now() - pack_start);
      ++loop.packs;
    } while (Now() < stop);
    return loop;
  }

  /// The first report of each spec, in pack order.
  const std::vector<scenario::ScenarioReport>& first() const { return first_; }
  const scenario::Blueprint& blueprint() const { return blueprint_; }

 private:
  void RunOne(size_t i, TraceSession* trace, PackLoop* loop) {
    const scenario::ScenarioSpec& spec = (*specs_)[i];
    const double t0 = Now();
    const telemetry::SpanId root =
        trace != nullptr ? trace->Root("scenario", t0) : telemetry::kNoSpan;
    scenario::ScenarioReport report = scenario::RunScenario(spec, blueprint_);
    const double t1 = Now();
    std::string problem = LedgerViolation(report);
    if (first_.size() == i) {
      first_.push_back(report);
    } else if (problem.empty() && !SameMetrics(report, first_[i])) {
      problem = spec.name + ": Metrics() differ between two runs of one spec";
    }
    const double t2 = Now();
    if (root != telemetry::kNoSpan) {
      trace->Child("RunScenario", root, t0, t1);
      trace->Child("check", root, t1, t2);
      trace->End(root, t2);
    }
    ++loop->runs;
    loop->virtual_requests += report.fleet.submitted;
    loop->scenario_seconds[i].Add(t1 - t0);
    if (!problem.empty()) {
      ++loop->failed;
      report_->CheckFailed(problem);
    }
  }

  const std::vector<scenario::ScenarioSpec>* specs_;
  scenario::Blueprint blueprint_;
  Report* report_;
  std::vector<scenario::ScenarioReport> first_;
};

/// Replays QuantileSketch::Add + Quantile(0.99) the way the simulator's
/// router reads shard p99s: one sketch per shard, a read after every add,
/// at the sample count each scenario reached. Microseconds per add+read.
double QuantileReplayUs(const std::vector<scenario::ScenarioReport>& reports,
                        size_t shards, uint64_t seed) {
  common::Rng rng(seed);
  double seconds = 0.0;
  uint64_t pairs = 0;
  for (const scenario::ScenarioReport& report : reports) {
    std::vector<double> latencies(report.fleet.served);
    for (double& v : latencies) v = rng.LogNormal(-4.0, 0.5);
    std::vector<common::QuantileSketch> sketches(shards);
    const double start = Now();
    for (size_t i = 0; i < latencies.size(); ++i) {
      common::QuantileSketch& sketch = sketches[i % shards];
      sketch.Add(latencies[i]);
      (void)sketch.Quantile(0.99);
    }
    seconds += Now() - start;
    pairs += latencies.size();
  }
  return pairs == 0 ? 0.0 : seconds / static_cast<double>(pairs) * 1e6;
}

void CountOps(const std::string& phase, const PackLoop& loop, Report* report) {
  report->Ops("scenario_pack." + phase, loop.runs, loop.runs - loop.failed,
              loop.failed);
}

}  // namespace

void RunScenarioPack(const RunOptions& options, Report* report) {
  const size_t scale = options.smoke ? kSmokeScale : kScale;
  report->Env("scale", static_cast<double>(scale));

  // Set-up: the spec build, repeated; the median is setup_s.
  Samples setup;
  std::vector<scenario::ScenarioSpec> specs;
  scenario::Blueprint blueprint;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double start = Now();
    specs = BuildSpecs(scale, options.seed);
    blueprint = scenario::DefaultBlueprint();
    setup.Add(Now() - start);
  }
  report->Set("setup_s", setup.Quantile(0.5));

  PackRunner runner(&specs, blueprint, report);
  const double phase_seconds = options.seconds / (options.trace ? 2.0 : 1.0);
  report->Env("phase_seconds", phase_seconds);
  const PackLoop loop = runner.Run(phase_seconds, nullptr);
  CountOps("pack", loop, report);
  if (loop.packs < 2) {
    // Every spec must have run twice for the determinism check.
    CountOps("pack_recheck", runner.Run(0.0, nullptr), report);
  }
  report->Set("ops_per_s", loop.vreq_per_s());
  report->Set("latency_ms", loop.scenario_seconds_gmean() * 1e3);
  std::printf("scenario_pack: %.0f virtual requests/s (fastest pack %.3f ms "
              "of %llu), scenario run %.3f ms\n",
              loop.vreq_per_s(), loop.pack_seconds.Quantile(0.0) * 1e3,
              static_cast<unsigned long long>(loop.packs),
              loop.scenario_seconds_gmean() * 1e3);
  if (!options.trace) {
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  TraceSession trace;
  const PackLoop traced = runner.Run(phase_seconds, &trace);
  CountOps("pack_traced", traced, report);
  report->TraceOverhead(loop.vreq_per_s(), traced.vreq_per_s(),
                        loop.scenario_seconds_gmean(),
                        traced.scenario_seconds_gmean());
  for (size_t i = 0; i < specs.size(); ++i) {
    report->Set("scenario.wall_s." + specs[i].name,
                traced.scenario_seconds[i].Quantile(0.0));
  }
  std::vector<fleet::ShardCounters> per_scenario;
  uint64_t episodes = 0;
  uint64_t promotes = 0;
  for (const scenario::ScenarioReport& r : runner.first()) {
    per_scenario.push_back(r.fleet);
    episodes += r.episodes;
    promotes += r.promotes;
  }
  const fleet::ShardCounters fleet = fleet::Aggregate(per_scenario);
  report->Set("fleet.accepted", static_cast<double>(fleet.accepted));
  report->Set("fleet.shed", static_cast<double>(fleet.Shed()));
  report->Set("fleet.hedges_fired", static_cast<double>(fleet.hedges_fired));
  report->Set("fleet.hedge_useful_ratio",
              fleet.hedges_fired == 0
                  ? 0.0
                  : static_cast<double>(fleet.hedge_wins) /
                        static_cast<double>(fleet.hedges_fired));
  report->Set("autonomy.episodes", static_cast<double>(episodes));
  report->Set("autonomy.promotes", static_cast<double>(promotes));
  report->Set("common.quantile.add_read_us",
              QuantileReplayUs(runner.first(), runner.blueprint().shards,
                               options.seed));
  trace.AddMetrics("scenario", report);
  trace.Write(".bench_out/trace_scenario_pack.json");
}

}  // namespace ads::perfbench
