#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ads::perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// 0: untraced run, prints the end-to-end metrics. 1: traced run, prints
  /// the per-layer metrics (and measures the tracing overhead).
  bool trace = false;
  /// Tiny inputs for the benchmark's own tests; never used for numbers.
  bool smoke = false;
};

/// Seconds on the steady clock since an arbitrary process-wide epoch.
double Now();

/// Sleeps until Now() reaches `t`.
void SleepUntil(double t);

/// Peak resident set size so far, in MiB: of this process, or of its
/// largest finished child process if that was larger.
double PeakRssMb();

/// Logical CPUs this process may run on (what `nproc` prints).
size_t CpuCount();

/// Bounded record of a stream of values: keeps every value until `cap` are
/// held, then thins to every 2nd, 4th, ... value seen. The thinning depends
/// only on arrival order, so quantiles track the stream's while memory stays
/// fixed however long a run lasts.
class Samples {
 public:
  explicit Samples(size_t cap = size_t{1} << 17);

  void Add(double v);
  /// Values offered so far (kept or not).
  size_t seen() const { return seen_; }
  bool exact() const { return stride_ == 1; }
  /// Linear-interpolated q-quantile of the kept values; 0 when empty.
  double Quantile(double q) const;
  /// Largest value offered (kept or not); 0 when empty.
  double Max() const { return max_; }

 private:
  size_t cap_;
  size_t stride_ = 1;
  size_t seen_ = 0;
  double max_ = 0.0;
  std::vector<double> kept_;
};

/// Geometric mean over classes (query templates, scenarios) of each
/// class's q-quantile. A quantile over the mixed classes would jump between
/// two classes' costs; this summary moves smoothly with each.
double GeometricMeanOfQuantile(const std::vector<Samples>& classes, double q);

/// Everything one run prints: operation counts per phase, the environment
/// stamp, the metrics and the correctness verdict. The metric catalogue
/// (names and units) lives in report.cc and matches BENCHMARK.json; a
/// per-layer metric a workload does not exercise prints as 0 — the layer
/// is bypassed there.
class Report {
 public:
  explicit Report(const RunOptions& options);

  /// Records `value` under a catalogued metric name (checked).
  void Set(const std::string& name, double value);
  /// True when the name is in the catalogue for this run's mode.
  bool Wants(const std::string& name) const;
  /// Sets trace.overhead_ops_pct and trace.overhead_latency_pct from one
  /// run's untraced and traced end-to-end figures (positive = tracing cost).
  void TraceOverhead(double ops, double traced_ops, double latency,
                     double traced_latency);

  /// Adds one phase's operation counts and prints them.
  void Ops(const std::string& phase, uint64_t sent, uint64_t succeeded,
           uint64_t failed);
  /// A correctness check failed (the operation is also counted failed by
  /// the caller). The first few messages are printed.
  void CheckFailed(const std::string& what);
  void Env(const std::string& key, const std::string& value);
  void Env(const std::string& key, double value);

  /// Prints the environment stamp, a human-readable metric table, and the
  /// final one-line JSON verdict. Returns false if a catalogued end-to-end
  /// metric was never measured (a benchmark bug).
  bool Finish();

  uint64_t check_failures() const { return check_failures_; }

  /// Catalogue of (name, unit) for one mode, in print order.
  static const std::vector<std::pair<std::string, std::string>>& Catalogue(
      bool trace);

 private:
  RunOptions options_;
  std::map<std::string, double> values_;
  std::vector<std::pair<std::string, std::string>> env_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
};

}  // namespace ads::perfbench

#endif  // PERFBENCH_REPORT_H_
