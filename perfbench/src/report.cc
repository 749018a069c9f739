#include "report.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

namespace ads::perfbench {

double Now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

void SleepUntil(double t) {
  const double wait = t - Now();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

double PeakRssMb() {
  // This process's peak from VmHWM, not RUSAGE_SELF: Linux carries
  // ru_maxrss across exec, so it would report the peak of the launching
  // run.py, which is larger than scenario_pack's, instead of ours.
  long self_kib = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &self_kib) == 1) break;
    }
    std::fclose(f);
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  // In KiB; for children it is the largest waited-for child.
  return static_cast<double>(std::max(self_kib, children.ru_maxrss)) / 1024.0;
}

size_t CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Samples::Samples(size_t cap) : cap_(std::max<size_t>(cap, 2)) {
  kept_.reserve(std::min<size_t>(cap_, 4096));
}

void Samples::Add(double v) {
  max_ = seen_ == 0 ? v : std::max(max_, v);
  if (seen_++ % stride_ != 0) return;
  if (kept_.size() == cap_) {
    // Keep every other value (the ones at multiples of the doubled stride).
    size_t out = 0;
    for (size_t i = 0; i < kept_.size(); i += 2) kept_[out++] = kept_[i];
    kept_.resize(out);
    stride_ *= 2;
    if ((seen_ - 1) % stride_ != 0) return;
  }
  kept_.push_back(v);
}

double Samples::Quantile(double q) const {
  // Computed here, not with common::QuantileSketch: the benchmark's own
  // statistics must not change when the program's sketch does.
  if (kept_.empty()) return 0.0;
  std::vector<double> sorted = kept_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double GeometricMeanOfQuantile(const std::vector<Samples>& classes, double q) {
  if (classes.empty()) return 0.0;
  double log_sum = 0.0;
  for (const Samples& s : classes) log_sum += std::log(s.Quantile(q));
  return std::exp(log_sum / static_cast<double>(classes.size()));
}

namespace {

using Catalog = std::vector<std::pair<std::string, std::string>>;

const char* const kTemplates[] = {
    "q1_pricing_summary", "q3_shipping_priority", "q4_order_priority",
    "q5_volume_by_nation", "q6_forecast_revenue", "q10_returned_items"};
const char* const kScenarios[] = {"diurnal_surge", "flash_crowd",
                                  "regional_outage", "noisy_neighbor",
                                  "slow_burn_drift"};
const char* const kSpans[] = {"request",  "Submit",   "callback",
                              "query",    "MakeQuery", "Optimize",
                              "Execute",  "check",    "scenario",
                              "RunScenario"};

Catalog EndToEnd() {
  return {{"setup_s", "s"},
          {"peak_rss_mb", "MB"},
          {"ops_per_s", "1/s"},
          {"latency_ms", "ms"}};
}

Catalog PerLayer() {
  Catalog c = {
      {"common.pool.threaded_over_serial", "ratio"},
      {"common.pool.serial_qps", "1/s"},
      {"common.pool.threaded_aborts", "count"},
      {"common.pool.tasks_per_query", "count"},
      {"common.pool.tasks_per_batch", "count"},
      {"common.quantile.add_read_us", "us"},
      {"serve.submit_us_p50", "us"},
      {"serve.submit_us_p99", "us"},
      {"serve.runtime_latency_p50_ms", "ms"},
      {"serve.batch_mean", "count"},
      {"serve.batches", "count"},
      {"serve.paced_p99_ms", "ms"},
      {"serve.paced_p999_ms", "ms"},
      {"serve.paced_samples", "count"},
      {"serve.generator_late_ms_p99", "ms"},
      {"serve.generator_late_ms_max", "ms"},
  };
  for (const char* phase : {"paced", "saturated"}) {
    for (const char* what : {"sent", "served", "rejected", "shed"}) {
      c.emplace_back(std::string("serve.") + phase + "." + what, "count");
    }
  }
  c.insert(c.end(), {{"ml.predict_batch_us_per_row", "us"},
                     {"ml.predict_busy_share", "share"},
                     {"engine.optimize_us_p50", "us"}});
  for (const char* name : kTemplates) {
    c.emplace_back(std::string("engine.execute_ms_p50.") + name, "ms");
  }
  for (const char* op : {"scan", "filter", "join", "aggregate", "sort"}) {
    c.emplace_back(std::string("engine.op_share.") + op, "share");
  }
  c.insert(c.end(), {{"engine.rows_in_per_row_out", "ratio"},
                     {"workload.tpch_generate_s", "s"},
                     {"workload.make_query_us_p50", "us"}});
  for (const char* name : kScenarios) {
    c.emplace_back(std::string("scenario.wall_s.") + name, "s");
  }
  c.insert(c.end(), {{"fleet.hedge_useful_ratio", "ratio"},
                     {"fleet.hedges_fired", "count"},
                     {"fleet.accepted", "count"},
                     {"fleet.shed", "count"},
                     {"autonomy.episodes", "count"},
                     {"autonomy.promotes", "count"},
                     {"trace.overhead_ops_pct", "%"},
                     {"trace.overhead_latency_pct", "%"},
                     {"trace.spans", "count"},
                     {"trace.dropped", "count"}});
  for (const char* name : kSpans) {
    c.emplace_back(std::string("span.") + name + ".self_share", "share");
  }
  return c;
}

/// The end-to-end metrics under the names each workload's users know them
/// by (printed beside the generic names; the JSON keeps the generic ones so
/// every workload reports every end-to-end metric).
const char* Alias(const std::string& workload, const std::string& metric) {
  if (workload == "serve_forest") {
    if (metric == "ops_per_s") return "serve_saturated_rps";
    if (metric == "latency_ms") return "serve_paced_p50_ms";
  } else if (workload == "query_tpch") {
    if (metric == "ops_per_s") return "query_qps";
    if (metric == "latency_ms") return "query_latency_gmean_ms";
  } else if (workload == "scenario_pack") {
    if (metric == "ops_per_s") return "sim_vreq_per_s";
    if (metric == "latency_ms") return "scenario_best_gmean_ms";
  }
  return "";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& Report::Catalogue(
    bool trace) {
  static const Catalog e2e = EndToEnd();
  static const Catalog layers = PerLayer();
  return trace ? layers : e2e;
}

Report::Report(const RunOptions& options) : options_(options) {}

bool Report::Wants(const std::string& name) const {
  for (const auto& [n, unit] : Catalogue(options_.trace)) {
    if (n == name) return true;
  }
  return false;
}

void Report::Set(const std::string& name, double value) {
  bool known = false;
  for (bool mode : {false, true}) {
    for (const auto& [n, unit] : Catalogue(mode)) known |= n == name;
  }
  if (!known) throw std::logic_error("uncatalogued metric " + name);
  if (Wants(name)) values_[name] = value;
}

void Report::TraceOverhead(double ops, double traced_ops, double latency,
                           double traced_latency) {
  Set("trace.overhead_ops_pct", (1.0 - traced_ops / ops) * 100.0);
  Set("trace.overhead_latency_pct", (traced_latency / latency - 1.0) * 100.0);
}

void Report::Ops(const std::string& phase, uint64_t sent, uint64_t succeeded,
                 uint64_t failed) {
  attempted_ += sent;
  failed_ += failed;
  std::printf("ops %-28s sent=%llu succeeded=%llu failed=%llu\n",
              phase.c_str(), static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(succeeded),
              static_cast<unsigned long long>(failed));
}

void Report::CheckFailed(const std::string& what) {
  if (++check_failures_ <= 5) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::Env(const std::string& key, const std::string& value) {
  env_.emplace_back(key, JsonString(value));
}

void Report::Env(const std::string& key, double value) {
  env_.emplace_back(key, Number(value));
}

bool Report::Finish() {
  std::string env = "{";
  for (size_t i = 0; i < env_.size(); ++i) {
    env += (i ? ", " : "") + JsonString(env_[i].first) + ": " + env_[i].second;
  }
  std::printf("env %s}\n", env.c_str());

  bool complete = true;
  std::string metrics;
  for (const auto& [name, unit] : Catalogue(options_.trace)) {
    auto it = values_.find(name);
    double value = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    if (!options_.trace && (it == values_.end() || !(value > 0.0))) {
      std::printf("end-to-end metric %s was not measured\n", name.c_str());
      complete = false;
    }
    const std::string alias =
        options_.trace ? "" : Alias(options_.workload, name);
    const std::string label = alias.empty() ? "" : "(" + alias + ")";
    std::printf("metric %-40s %16.6g %-6s %s\n", name.c_str(), value,
                unit.c_str(), label.c_str());
    metrics += (metrics.empty() ? "" : ", ") + JsonString(name) +
               ": {\"value\": " + Number(value) +
               ", \"unit\": " + JsonString(unit) + "}";
  }
  if (check_failures_ > 0) {
    std::printf("%llu correctness check(s) failed\n",
                static_cast<unsigned long long>(check_failures_));
  }
  if (!complete || attempted_ == 0) return false;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              check_failures_ == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace ads::perfbench
