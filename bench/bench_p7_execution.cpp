// P7 — real query execution: the vectorized columnar executor vs the
// row-at-a-time reference executor on the TPC-H-shaped templates, at a
// scale factor where the working set exceeds L2 (the regime the columnar
// layout is for), plus estimated-vs-actual cardinality grounding from the
// measured OperatorStats.
//
// Before timing anything the bench ADS_CHECKs that the vectorized answer
// is bit-identical to the reference answer on every template — a wrong-
// but-fast executor fails loudly here.
//
// Output:
//   - a deterministic answer table on stdout (query, rows, checksum):
//     byte-identical across runs and across ADS_THREADS, which CI diffs
//     at ADS_THREADS=1 vs 4;
//   - timing and cardinality tables with each template's per-operator
//     time shares (scan/filter/join/aggregate, from the measured
//     OperatorStats over the timed runs), suppressed under --smoke so
//     the deterministic stdout stays diffable;
//   - machine-readable metrics as JSON (--out=PATH, default
//     BENCH_p7.json).
//
// `--smoke` shrinks the scale factor and repetitions for CI.

#include <algorithm>
#include <array>
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
#include "common/logging.h"
#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/plan.h"
#include "engine/reference_exec.h"
#include "engine/rules.h"
#include "engine/table.h"
#include "workload/tpch_gen.h"

using namespace ads;  // NOLINT: bench brevity
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

/// Operator types whose share of execution time the timing table reports.
constexpr std::array<std::pair<engine::OpType, const char*>, 4> kShareOps = {{
    {engine::OpType::kScan, "scan"},
    {engine::OpType::kFilter, "filter"},
    {engine::OpType::kJoin, "join"},
    {engine::OpType::kAggregate, "aggregate"},
}};

double StoreBytes(const engine::TableStore& store, const std::string& name) {
  const engine::ColumnTable* t = store.FindTable(name);
  return static_cast<double>(t->num_rows() * t->num_columns() * 8);
}

void Run() {
  workload::TpchGenOptions opts;
  // Full scale: lineitem ~60k rows x 8 columns x 8B ~ 3.8 MB — past L2 on
  // the CI machines, so the scan-dominated operators run out of L3/DRAM.
  opts.scale_factor = g_smoke ? 0.05 : 1.0;
  opts.seed = 42;
  workload::TpchGenerator gen(opts);

  const double lineitem_bytes = StoreBytes(gen.store(), "lineitem");
  Metric("lineitem_bytes", lineitem_bytes);
  Metric("orders_bytes", StoreBytes(gen.store(), "orders"));
  Metric("customer_bytes", StoreBytes(gen.store(), "customer"));

  engine::Optimizer optimizer(&gen.catalog());
  engine::RealExecutor vectorized(&gen.store());
  engine::ReferenceExecutor reference(&gen.store());

  const int reps = g_smoke ? 1 : 5;

  std::printf("answers (deterministic: diffed across ADS_THREADS by CI)\n");
  std::printf("%-22s %10s %20s\n", "query", "rows", "checksum");

  struct Timing {
    std::string name;
    double ref_s = 0.0;
    double vec_s = 0.0;
    double est_card = 0.0;
    double actual = 0.0;
    double max_q_error = 0.0;
    /// Share of Execute's measured time spent in each kShareOps operator.
    std::array<double, kShareOps.size()> op_share{};
  };
  std::vector<Timing> timings;

  for (const std::string& name : gen.QueryNames()) {
    auto logical = gen.MakeQuery(name);
    ADS_CHECK(logical.ok()) << logical.status();
    auto plan = optimizer.Optimize(*logical.value(),
                                   engine::RuleConfig::Default());
    ADS_CHECK(plan != nullptr);

    // Correctness gate before any timing.
    auto vec = vectorized.Execute(*plan);
    ADS_CHECK(vec.ok()) << name << ": " << vec.status();
    auto ref = reference.Execute(*plan);
    ADS_CHECK(ref.ok()) << name << ": " << ref.status();
    ADS_CHECK(vec->table.BitwiseEquals(ref.value()))
        << name << ": vectorized answer diverged from reference";

    std::printf("%-22s %10zu %20llu\n", name.c_str(),
                vec->table.num_rows(),
                static_cast<unsigned long long>(vec->table.Checksum()));

    Timing t;
    t.name = name;
    t.ref_s = BestSeconds(reps, [&] {
      auto r = reference.Execute(*plan);
      ADS_CHECK(r.ok());
    });
    std::array<double, kShareOps.size()> op_seconds{};
    double execute_seconds = 0.0;
    t.vec_s = BestSeconds(reps, [&] {
      auto r = vectorized.Execute(*plan);
      ADS_CHECK(r.ok());
      execute_seconds += r->total_seconds;
      for (const engine::OperatorStats& op : r->operators) {
        for (size_t k = 0; k < kShareOps.size(); ++k) {
          if (op.op == kShareOps[k].first) op_seconds[k] += op.seconds;
        }
      }
    });
    for (size_t k = 0; k < kShareOps.size(); ++k) {
      t.op_share[k] = op_seconds[k] / execute_seconds;
    }
    // Estimated-vs-actual from the measured operator stats: the root's
    // estimate vs its real output, and the worst per-operator q-error.
    const engine::OperatorStats& root = vec->operators.back();
    t.est_card = root.est_card;
    t.actual = static_cast<double>(root.rows_out);
    for (const engine::OperatorStats& op : vec->operators) {
      const double est = std::max(1.0, op.est_card);
      const double act = std::max(1.0, static_cast<double>(op.rows_out));
      t.max_q_error = std::max(t.max_q_error, std::max(est / act, act / est));
    }

    Metric(name + ".rows_out", t.actual);
    Metric(name + ".reference_seconds", t.ref_s);
    Metric(name + ".vectorized_seconds", t.vec_s);
    Metric(name + ".speedup", t.ref_s / t.vec_s);
    Metric(name + ".root_est_card", t.est_card);
    Metric(name + ".max_q_error", t.max_q_error);
    for (size_t k = 0; k < kShareOps.size(); ++k) {
      Metric(name + "." + kShareOps[k].second + "_share", t.op_share[k]);
    }
    timings.push_back(t);
  }

  if (!g_smoke) {
    std::printf("\ntimings (best of %d, %zu pool workers, lineitem %.1f MB)\n",
                reps, common::ThreadPool::Global().worker_count(),
                lineitem_bytes / 1048576.0);
    std::printf("%-22s %12s %12s %9s %12s %12s %9s", "query", "ref_ms",
                "vec_ms", "speedup", "est_rows", "actual", "max_qerr");
    for (const auto& [op, label] : kShareOps) std::printf(" %9.9s", label);
    std::printf("\n");
    for (const Timing& t : timings) {
      std::printf("%-22s %12.3f %12.3f %8.1fx %12.0f %12.0f %9.1f",
                  t.name.c_str(), t.ref_s * 1e3, t.vec_s * 1e3,
                  t.ref_s / t.vec_s, t.est_card, t.actual, t.max_q_error);
      for (double share : t.op_share) std::printf(" %9.3f", share);
      std::printf("\n");
    }
    // The headline claim: columnar + vectorized beats tuple-at-a-time on
    // the join+aggregate templates once the data outruns L2.
    double join_agg_speedup = std::numeric_limits<double>::infinity();
    for (const Timing& t : timings) {
      if (t.name == "q3_shipping_priority" ||
          t.name == "q5_volume_by_nation" ||
          t.name == "q10_returned_items") {
        join_agg_speedup = std::min(join_agg_speedup, t.ref_s / t.vec_s);
      }
    }
    Metric("join_agg_min_speedup", join_agg_speedup);
    std::printf("\njoin+aggregate min speedup: %.1fx (target >= 2x)\n",
                join_agg_speedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_p7.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) g_smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
  }
  std::printf("P7 | real execution bench%s\n\n", g_smoke ? " (smoke)" : "");
  Run();
  bench::WriteJson(out, "bench_p7_execution", g_smoke);
  return 0;
}
