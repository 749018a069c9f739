// perfbench: the repository benchmark driver.
//
//   perfbench --workload <serve_forest|query_tpch|scenario_pack>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints operation counts per phase, an environment stamp, a metric table
// and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits non-zero (printing no JSON) on a usage or set-up
// error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "report.h"
#include "workloads.h"

using namespace ads;  // NOLINT: driver brevity

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_forest|query_tpch|scenario_pack> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

/// Sizes ThreadPool::Global() (through ADS_THREADS, before first use) so
/// the workload's own threads plus pool workers never exceed the CPUs:
/// serve_forest runs a generator and a dispatcher thread beside the pool,
/// query_tpch one client thread, and scenario_pack no pool work at all.
/// Returns the pool's worker count (ADS_THREADS=1 means inline: none).
size_t SizeGlobalPool(const std::string& workload, size_t cpus) {
  const size_t own_threads = workload == "serve_forest" ? 2 : 1;
  size_t workers = cpus > own_threads + 1 ? cpus - own_threads : 1;
  if (workload == "scenario_pack") workers = 1;
  setenv("ADS_THREADS", std::to_string(workers).c_str(), 1);
  return workers == 1 ? 0 : workers;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUnsigned(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUnsigned(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUnsigned(value, &number) &&
               number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else {
      return Usage(("bad argument " + flag + " " + value).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const perfbench::RunOptions&, perfbench::Report*) = nullptr;
  if (options.workload == "serve_forest") run = perfbench::RunServeForest;
  if (options.workload == "query_tpch") run = perfbench::RunQueryTpch;
  if (options.workload == "scenario_pack") run = perfbench::RunScenarioPack;
  if (run == nullptr) return Usage("unknown workload");

  const size_t cpus = perfbench::CpuCount();
  const size_t workers = SizeGlobalPool(options.workload, cpus);
  perfbench::Report report(options);
  report.Env("workload", options.workload);
  report.Env("seed", static_cast<double>(options.seed));
  report.Env("seconds", options.seconds);
  report.Env("trace", options.trace ? 1.0 : 0.0);
  report.Env("smoke", options.smoke ? 1.0 : 0.0);
  report.Env("simd", common::SimdLevelName(common::ActiveSimdLevel()));
  report.Env("nproc", static_cast<double>(cpus));
  report.Env("pool_workers", static_cast<double>(workers));
  report.Env("build_type", PERFBENCH_BUILD_TYPE);
  try {
    run(options, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  return report.Finish() ? 0 : 1;
}
