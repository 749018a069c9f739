// P6 — the scenario pack as a macro-benchmark, plus blueprint knob
// optimization on top of it.
//
// Phase 1 runs every named scenario (diurnal surge, flash crowd, regional
// outage, noisy neighbor, slow-burn drift) end to end through the full
// stack — VirtualFleet shards/replicas/hedging/diverts over ServingCore
// admission and ResilientModelServer backends, with the AutonomyLoop
// riding the drift scenario — in virtual time under the default
// blueprint, and reports each scenario's machine-readable ScenarioReport
// (SLO attainment, availability, shed rate, tail percentiles, cost
// proxy).
//
// Phase 2 turns the knobs: BlueprintOptimizer searches the blueprint
// space (placement, pools, queues, batching, hedging, rate limits, shed
// priorities, breaker, diverts) per scenario against its cost/QoS
// objective and reports the best blueprint found, whether it Pareto-
// dominates the default, and the size of the cost/QoS frontier. Phase 3
// reports the cross-scenario robust blueprint.
//
// Every number here is a deterministic function of the scenario seeds:
// reruns — at any ADS_THREADS — are byte-identical, which CI enforces by
// diffing two runs at ADS_THREADS=1 and 4.
//
// Output: human tables on stdout; machine-readable JSON via --out=PATH
// (default BENCH_p6.json). `--smoke` shrinks traffic volume and search
// budget for CI runners.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "common/logging.h"
#include "common/table.h"
#include "scenario/optimizer.h"
#include "scenario/scenario.h"

using namespace ads;  // NOLINT: bench brevity
using bench::Metric;

namespace {

bool g_smoke = false;

void EmitReport(const std::string& prefix,
                const scenario::ScenarioReport& report) {
  for (const auto& [name, value] : report.Metrics()) {
    Metric(prefix + "." + name, value);
  }
}

// --------------------------------------------------------------------
// P6.1 | the scenario pack under the default blueprint.
// --------------------------------------------------------------------

std::vector<scenario::ScenarioReport> RunPack(
    const std::vector<scenario::ScenarioSpec>& pack) {
  const scenario::Blueprint defaults = scenario::DefaultBlueprint();
  std::vector<scenario::ScenarioReport> reports;
  common::Table table({"scenario", "served", "avail", "shed", "SLO att.",
                       "p50 (ms)", "p99 (ms)", ">2xSLO", "MAE", "SLO"});
  for (const scenario::ScenarioSpec& spec : pack) {
    scenario::ScenarioReport r = scenario::RunScenario(spec, defaults);
    table.AddRow({spec.name, std::to_string(r.fleet.served),
                  common::Table::Pct(r.availability),
                  common::Table::Pct(r.shed_rate),
                  common::Table::Pct(r.slo_attainment),
                  common::Table::Num(r.latency.p50 * 1e3, 1),
                  common::Table::Num(r.latency.p99 * 1e3, 1),
                  std::to_string(r.tail_over_2x_slo),
                  common::Table::Num(r.mean_abs_error, 3),
                  r.slo_met ? "ok" : "MISS"});
    EmitReport(spec.name, r);
    reports.push_back(std::move(r));
  }
  table.Print("P6.1 | scenario pack under the default blueprint (" +
              defaults.Key() + ")");
  return reports;
}

// --------------------------------------------------------------------
// P6.2 | per-scenario blueprint optimization.
// --------------------------------------------------------------------

std::vector<scenario::OptimizationResult> RunOptimizer(
    const std::vector<scenario::ScenarioSpec>& pack,
    scenario::BlueprintOptimizer* optimizer) {
  std::vector<scenario::OptimizationResult> results;
  common::Table table({"scenario", "evals", "default score", "best score",
                       "cost x", "qos_loss x", "dominates", "frontier",
                       "best blueprint"});
  size_t dominated = 0;
  for (const scenario::ScenarioSpec& spec : pack) {
    scenario::OptimizationResult r = optimizer->Optimize(spec);
    const auto& base = r.baseline.report;
    const auto& best = r.best.report;
    table.AddRow(
        {spec.name, std::to_string(r.evaluations),
         common::Table::Num(base.score, 1), common::Table::Num(best.score, 1),
         common::Table::Num(best.cost / base.cost, 3),
         common::Table::Num(best.qos_loss / std::max(base.qos_loss, 1e-12), 3),
         r.best_dominates_baseline ? "yes" : "no",
         std::to_string(r.frontier.size()), r.best.blueprint.Key()});
    if (r.best_dominates_baseline) ++dominated;
    Metric(spec.name + ".opt_evaluations",
           static_cast<double>(r.evaluations));
    Metric(spec.name + ".opt_frontier_size",
           static_cast<double>(r.frontier.size()));
    Metric(spec.name + ".opt_dominates_default",
           r.best_dominates_baseline ? 1.0 : 0.0);
    EmitReport(spec.name + ".opt_best", best);
    results.push_back(std::move(r));
  }
  table.Print("P6.2 | blueprint optimization per scenario (seeded local "
              "search + Pareto frontier)");
  // The headline claim: tuning the existing knobs strictly beats the
  // default somewhere — if this ever regresses to zero the optimizer (or
  // a scenario) has gone soft.
  ADS_CHECK(dominated > 0)
      << "no scenario's optimized blueprint dominates the default";
  Metric("scenarios_where_optimizer_dominates",
         static_cast<double>(dominated));
  return results;
}

// --------------------------------------------------------------------
// P6.3 | cross-scenario robust blueprint.
// --------------------------------------------------------------------

void RunRobust(const std::vector<scenario::ScenarioSpec>& pack,
               const std::vector<scenario::OptimizationResult>& results,
               scenario::BlueprintOptimizer* optimizer) {
  double worst_ratio = 0.0;
  scenario::EvaluatedBlueprint robust =
      optimizer->OptimizeRobust(pack, results, &worst_ratio);
  std::printf(
      "P6.3 | robust blueprint (best worst-case score ratio vs default "
      "across all scenarios)\n  blueprint: %s\n  worst-case ratio: %.3f "
      "(on %s)\n",
      robust.blueprint.Key().c_str(), worst_ratio,
      robust.report.scenario.c_str());
  Metric("robust_worst_case_ratio", worst_ratio);
  Metric("robust_cores", static_cast<double>(robust.blueprint.Cores()));
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_p6.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") g_smoke = true;
    const std::string flag = "--out=";
    if (arg.rfind(flag, 0) == 0) out = arg.substr(flag.size());
  }
  std::printf("P6 | scenario-pack macro-benchmark + blueprint knob "
              "optimizer\n\n");
  // Full scale doubles traffic volume rather than quadrupling it: the
  // optimizer re-runs every scenario dozens of times, so scenario length
  // multiplies the whole search. 2x volume + budget 48 keeps the full
  // run in CI around 2-3 minutes while preserving the same phenomena.
  const std::vector<scenario::ScenarioSpec> pack =
      scenario::StandardScenarios(g_smoke ? 1 : 2);
  RunPack(pack);
  std::printf("\n");
  scenario::OptimizerOptions oopts;
  oopts.eval_budget = g_smoke ? 28 : 48;
  oopts.restarts = g_smoke ? 1 : 2;
  scenario::BlueprintOptimizer optimizer(oopts);
  const std::vector<scenario::OptimizationResult> results =
      RunOptimizer(pack, &optimizer);
  std::printf("\n");
  RunRobust(pack, results, &optimizer);
  bench::WriteJson(out, "bench_p6_scenarios", g_smoke);
  return 0;
}
