// query_tpch: the query path end to end.
//
// TpchGenerator at SF 1 (lineitem ~60k rows, ~3.8 MB: past one core's L2,
// inside L3). One client runs a closed loop, round-robin over the six
// templates: MakeQuery -> Optimize(RuleConfig::Default()) ->
// RealExecutor::Execute on ThreadPool::Serial(). Every answer is checked
// bit for bit against ReferenceExecutor on the same database.
//
// The end-to-end loop runs on the serial pool because the global pool's
// ThreadPool::ParallelFor can abort the process (a use-after-scope race on
// its completion mutex, ROADMAP item 1), and a benchmark operation must
// not fail at random. The traced run also probes the same loop on
// ThreadPool::Global() for common.pool.threaded_over_serial. Each loop
// runs in a forked query process that logs one record per query into
// shared memory; the benchmark process only waits. When a query process
// dies, the death is printed and counted, and a new query process
// continues the phase: one abort costs one query, not the run. On the
// serial loops an abort is a failed operation; on the threaded probe it is
// the reported common.pool.threaded_aborts.

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "checks.h"
#include "common/thread_pool.h"
#include "engine/exec_real.h"
#include "engine/optimizer.h"
#include "engine/rules.h"
#include "trace.h"
#include "workload/tpch_gen.h"
#include "workloads.h"

namespace ads::perfbench {
namespace {

constexpr double kScaleFactor = 1.0;
constexpr double kSmokeScaleFactor = 0.05;
/// Queries one phase can log (a phase ends early when the log is full).
constexpr size_t kMaxRecords = size_t{1} << 16;
/// How long past its deadline a query process may run before it is
/// treated as hung and killed.
constexpr double kGraceSeconds = 20.0;

/// Operator types whose share of Execute time is reported.
constexpr std::array<std::pair<engine::OpType, const char*>, 5> kOps = {{
    {engine::OpType::kScan, "scan"},
    {engine::OpType::kFilter, "filter"},
    {engine::OpType::kJoin, "join"},
    {engine::OpType::kAggregate, "aggregate"},
    {engine::OpType::kSort, "sort"},
}};

/// Span names of the traced phase; "query" is the root.
constexpr std::array<const char*, 5> kSpanNames = {
    "query", "MakeQuery", "Optimize", "Execute", "check"};

/// One query's measurements, written by the query process.
struct QueryRecord {
  uint32_t template_index = 0;
  uint32_t correct = 0;
  double make_query_seconds = 0.0;
  double optimize_seconds = 0.0;
  double execute_seconds = 0.0;
  /// Set on the query that closes a round (the six templates once each).
  double round_seconds = 0.0;
  double execute_total_seconds = 0.0;
  std::array<double, kOps.size()> op_seconds{};
  double rows_in = 0.0;
  double rows_out = 0.0;
  uint64_t pool_tasks = 0;
};

/// Span rollup of one traced query process.
struct SpanRollup {
  std::array<telemetry::SpanAggregate, kSpanNames.size()> by_name{};
  uint64_t spans = 0;
  uint64_t dropped = 0;
};

/// Query records shared between the benchmark process and one query
/// process at a time, in an anonymous shared mapping. Records are copied in
/// and out as bytes (QueryRecord is trivially copyable), so only the pages
/// a phase writes become resident.
class SharedLog {
 public:
  SharedLog() {
    void* p = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of the query log");
    header_ = new (p) Header;
    records_ = static_cast<unsigned char*>(p) + sizeof(Header);
  }
  ~SharedLog() {
    header_->~Header();
    munmap(header_, kBytes);
  }
  SharedLog(const SharedLog&) = delete;
  SharedLog& operator=(const SharedLog&) = delete;

  void Clear() {
    header_->count.store(0);
    header_->rollup_ready.store(0);
  }
  uint64_t size() const { return header_->count.load(); }
  /// Query process only.
  void Append(const QueryRecord& record) {
    const uint64_t n = header_->count.load(std::memory_order_relaxed);
    std::memcpy(records_ + n * sizeof(QueryRecord), &record,
                sizeof(QueryRecord));
    header_->count.store(n + 1, std::memory_order_release);
  }
  QueryRecord At(uint64_t i) const {
    QueryRecord record;
    std::memcpy(&record, records_ + i * sizeof(QueryRecord),
                sizeof(QueryRecord));
    return record;
  }
  /// Query process only: publishes its span rollup.
  void SetRollup(const SpanRollup& rollup) {
    header_->rollup = rollup;
    header_->rollup_ready.store(1, std::memory_order_release);
  }
  const SpanRollup* rollup() const {
    return header_->rollup_ready.load() != 0 ? &header_->rollup : nullptr;
  }

 private:
  struct Header {
    std::atomic<uint64_t> count{0};
    std::atomic<uint32_t> rollup_ready{0};
    SpanRollup rollup;
  };
  static_assert(std::atomic<uint64_t>::is_always_lock_free);
  static_assert(std::is_trivially_copyable_v<QueryRecord>);
  static constexpr size_t kBytes =
      sizeof(Header) + kMaxRecords * sizeof(QueryRecord);

  Header* header_ = nullptr;
  unsigned char* records_ = nullptr;
};

/// What one phase observed, folded from the query records.
struct Loop {
  /// Queries logged (answered), and those whose answer was wrong.
  uint64_t queries = 0;
  uint64_t failed = 0;
  /// Query processes that died; each lost the query in flight.
  uint64_t aborts = 0;
  uint64_t pool_tasks = 0;
  Samples round_seconds;
  Samples make_query_seconds;
  Samples optimize_seconds;
  /// Per template: MakeQuery through Execute, and Execute alone.
  std::vector<Samples> query_seconds;
  std::vector<Samples> execute_seconds;
  std::array<double, kOps.size()> op_seconds{};
  double execute_total_seconds = 0.0;
  double rows_in = 0.0;
  double rows_out = 0.0;
  SpanRollup rollup;

  /// Templates per median round: robust to bursts of host interference.
  double qps() const {
    return static_cast<double>(execute_seconds.size()) /
           round_seconds.Quantile(0.5);
  }
  /// Geometric mean over templates of the median query latency, the shape
  /// of TPC-H's power test.
  double latency_seconds() const {
    return GeometricMeanOfQuantile(query_seconds, 0.5);
  }
};

enum class PoolKind { kGlobal, kSerial };

class QueryPhase {
 public:
  QueryPhase(const workload::TpchGenerator* generator,
             const QueryOracle* oracle, SharedLog* log, Report* report)
      : generator_(generator), oracle_(oracle), log_(log), report_(report) {}

  /// Closed loop of whole rounds (at least one) until `seconds` have
  /// passed, in query processes restarted after any abort.
  Loop Run(PoolKind pool, double seconds, bool traced) {
    Loop loop;
    loop.query_seconds.resize(oracle_->names().size());
    loop.execute_seconds.resize(oracle_->names().size());
    const double stop = Now() + seconds;
    for (;;) {
      log_->Clear();
      const std::string death = RunQueryProcess(pool, stop, traced);
      const uint64_t logged = log_->size();
      for (uint64_t i = 0; i < logged; ++i) Fold(log_->At(i), &loop);
      if (log_->rollup() != nullptr) Merge(*log_->rollup(), &loop.rollup);
      if (death.empty()) break;
      ++loop.aborts;
      std::printf("query process %s after %llu queries; restarting\n",
                  death.c_str(), static_cast<unsigned long long>(logged));
      if (Now() >= stop) break;
    }
    return loop;
  }

 private:
  /// Forks a query process and waits for it. Returns "" when it exited
  /// cleanly, else how it died.
  std::string RunQueryProcess(PoolKind pool, double stop, bool traced) {
    // fork() copies only the calling thread: the benchmark process must
    // not have started the pool's workers (the query process starts them).
    size_t threads = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)entry;
      ++threads;
    }
    if (threads != 1) {
      throw std::logic_error("query_tpch must fork from a single thread");
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork of the query process");
    if (pid == 0) {
      // A query process must not outlive a benchmark process that is killed.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      QueryProcess(pool, stop, traced);  // never returns
    }

    int status = 0;
    for (;;) {
      const pid_t done = waitpid(pid, &status, WNOHANG);
      if (done == pid) break;
      if (done < 0) throw std::runtime_error("waitpid on the query process");
      if (Now() > stop + kGraceSeconds) {
        kill(pid, SIGKILL);
        waitpid(pid, &status, 0);
        return "hung and was killed";
      }
      usleep(10000);
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) return "";
    if (WIFSIGNALED(status)) {
      return "died of signal " + std::to_string(WTERMSIG(status));
    }
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }

  /// The query process: warm-up round, then whole rounds until `stop`,
  /// one record per query. Exits without returning.
  [[noreturn]] void QueryProcess(PoolKind pool_kind, double stop,
                                 bool traced) {
    common::ThreadPool* pool = pool_kind == PoolKind::kGlobal
                                   ? &common::ThreadPool::Global()
                                   : &common::ThreadPool::Serial();
    const engine::RealExecutor executor(&generator_->store(),
                                        engine::RealExecOptions{.pool = pool});
    const engine::Optimizer optimizer(&generator_->catalog());
    std::unique_ptr<TraceSession> trace =
        traced ? std::make_unique<TraceSession>() : nullptr;
    const size_t templates = oracle_->names().size();
    // Warm-up round: caches filled, the pool's threads started; not logged.
    for (size_t i = 0; i < templates; ++i) {
      (void)RunQuery(executor, *pool, optimizer, i, nullptr);
    }
    do {
      const double round_start = Now();
      for (size_t i = 0; i < templates; ++i) {
        QueryRecord record =
            RunQuery(executor, *pool, optimizer, i, trace.get());
        if (i + 1 == templates) record.round_seconds = Now() - round_start;
        log_->Append(record);
      }
    } while (Now() < stop && log_->size() + templates <= kMaxRecords);
    if (trace != nullptr) {
      const auto by_name = trace->Rollup();
      SpanRollup rollup;
      for (size_t k = 0; k < kSpanNames.size(); ++k) {
        auto it = by_name.find(kSpanNames[k]);
        if (it != by_name.end()) rollup.by_name[k] = it->second;
      }
      rollup.spans = trace->spans();
      rollup.dropped = trace->dropped();
      trace->Write(".bench_out/trace_query_tpch.json");
      log_->SetRollup(rollup);
    }
    // _exit: the benchmark process's stdio buffers and static destructors
    // belong to it, not to this copy.
    _exit(0);
  }

  QueryRecord RunQuery(const engine::RealExecutor& executor,
                       const common::ThreadPool& pool,
                       const engine::Optimizer& optimizer, size_t i,
                       TraceSession* trace) const {
    QueryRecord record;
    record.template_index = static_cast<uint32_t>(i);
    const uint64_t tasks = pool.Stats().executed;
    const double t0 = Now();
    const telemetry::SpanId root =
        trace != nullptr ? trace->Root("query", t0) : telemetry::kNoSpan;
    auto logical = generator_->MakeQuery(oracle_->names()[i]);
    const double t1 = Now();
    std::unique_ptr<engine::PlanNode> plan;
    if (logical.ok()) {
      plan = optimizer.Optimize(*logical.value(),
                                engine::RuleConfig::Default());
    }
    const double t2 = Now();
    common::Result<engine::ExecResult> result =
        plan != nullptr ? executor.Execute(*plan)
                        : common::Result<engine::ExecResult>(
                              common::Status::Internal("no plan"));
    const double t3 = Now();
    record.correct = result.ok() && oracle_->Matches(i, result->table);
    const double t4 = Now();
    if (root != telemetry::kNoSpan) {
      trace->Child("MakeQuery", root, t0, t1);
      trace->Child("Optimize", root, t1, t2);
      trace->Child("Execute", root, t2, t3);
      trace->Child("check", root, t3, t4);
      trace->End(root, t4);
    }
    record.make_query_seconds = t1 - t0;
    record.optimize_seconds = t2 - t1;
    record.execute_seconds = t3 - t2;
    record.pool_tasks = pool.Stats().executed - tasks;
    if (result.ok()) {
      record.execute_total_seconds = result->total_seconds;
      for (const engine::OperatorStats& op : result->operators) {
        record.rows_in += static_cast<double>(op.rows_in);
        record.rows_out += static_cast<double>(op.rows_out);
        for (size_t k = 0; k < kOps.size(); ++k) {
          if (op.op == kOps[k].first) record.op_seconds[k] += op.seconds;
        }
      }
    }
    return record;
  }

  void Fold(const QueryRecord& record, Loop* loop) const {
    const size_t i = record.template_index;
    ++loop->queries;
    loop->pool_tasks += record.pool_tasks;
    if (record.round_seconds > 0.0) loop->round_seconds.Add(record.round_seconds);
    if (!record.correct) {
      ++loop->failed;
      report_->CheckFailed(oracle_->names()[i] +
                           ": answer differs from ReferenceExecutor");
      return;
    }
    loop->make_query_seconds.Add(record.make_query_seconds);
    loop->optimize_seconds.Add(record.optimize_seconds);
    loop->query_seconds[i].Add(record.make_query_seconds +
                               record.optimize_seconds +
                               record.execute_seconds);
    loop->execute_seconds[i].Add(record.execute_seconds);
    loop->execute_total_seconds += record.execute_total_seconds;
    loop->rows_in += record.rows_in;
    loop->rows_out += record.rows_out;
    for (size_t k = 0; k < kOps.size(); ++k) {
      loop->op_seconds[k] += record.op_seconds[k];
    }
  }

  static void Merge(const SpanRollup& from, SpanRollup* into) {
    for (size_t k = 0; k < kSpanNames.size(); ++k) {
      into->by_name[k].count += from.by_name[k].count;
      into->by_name[k].total_seconds += from.by_name[k].total_seconds;
      into->by_name[k].self_seconds += from.by_name[k].self_seconds;
    }
    into->spans += from.spans;
    into->dropped += from.dropped;
  }

  const workload::TpchGenerator* generator_;
  const QueryOracle* oracle_;
  SharedLog* log_;
  Report* report_;
};

/// Counts a serial loop's operations: a wrong answer and a query lost to
/// an aborted query process both fail.
void CountOps(const std::string& phase, const Loop& loop, Report* report) {
  report->Ops("query_tpch." + phase, loop.queries + loop.aborts,
              loop.queries - loop.failed, loop.failed + loop.aborts);
}

}  // namespace

void RunQueryTpch(const RunOptions& options, Report* report) {
  workload::TpchGenOptions gen_options;
  gen_options.scale_factor = options.smoke ? kSmokeScaleFactor : kScaleFactor;
  gen_options.seed = options.seed;
  report->Env("scale_factor", gen_options.scale_factor);

  // Set-up: TpchGenerator construction, repeated; the median is setup_s.
  const int repeats = options.trace || options.smoke ? 1 : 3;
  Samples setup;
  std::unique_ptr<workload::TpchGenerator> generator;
  for (int i = 0; i < repeats; ++i) {
    generator.reset();
    const double start = Now();
    generator = std::make_unique<workload::TpchGenerator>(gen_options);
    setup.Add(Now() - start);
  }
  report->Set("setup_s", setup.Quantile(0.5));
  report->Set("workload.tpch_generate_s", setup.Quantile(0.5));
  report->Env("lineitem_rows", static_cast<double>(
                                   generator->store().FindTable("lineitem")
                                       ->num_rows()));

  common::Result<QueryOracle> oracle = QueryOracle::Build(*generator);
  if (!oracle.ok()) {
    throw std::runtime_error("reference answers: " +
                             oracle.status().ToString());
  }
  SharedLog log;
  QueryPhase phase(generator.get(), &oracle.value(), &log, report);
  const double phase_seconds = options.seconds / (options.trace ? 3.0 : 1.0);
  report->Env("phase_seconds", phase_seconds);

  const Loop loop = phase.Run(PoolKind::kSerial, phase_seconds, false);
  CountOps("serial", loop, report);
  report->Set("ops_per_s", loop.qps());
  report->Set("latency_ms", loop.latency_seconds() * 1e3);
  std::printf("query_tpch: %.2f queries/s (median round %.3f ms over %zu "
              "rounds), query latency %.3f ms, %llu query process aborts\n",
              loop.qps(), loop.round_seconds.Quantile(0.5) * 1e3,
              loop.round_seconds.seen(), loop.latency_seconds() * 1e3,
              static_cast<unsigned long long>(loop.aborts));
  if (!options.trace) {
    report->Set("peak_rss_mb", PeakRssMb());
    return;
  }

  const Loop traced = phase.Run(PoolKind::kSerial, phase_seconds, true);
  CountOps("serial_traced", traced, report);
  // The threaded probe: its answers are checked like any other, but its
  // aborts are the ParallelFor race being measured, reported on their own.
  const Loop threaded = phase.Run(PoolKind::kGlobal, phase_seconds, false);
  report->Ops("query_tpch.threaded_probe", threaded.queries,
              threaded.queries - threaded.failed, threaded.failed);
  std::printf("query_tpch threaded probe: %.2f queries/s, %llu query "
              "process aborts\n",
              threaded.qps(), static_cast<unsigned long long>(threaded.aborts));

  report->TraceOverhead(loop.qps(), traced.qps(), loop.latency_seconds(),
                        traced.latency_seconds());
  report->Set("common.pool.serial_qps", loop.qps());
  report->Set("common.pool.threaded_over_serial", threaded.qps() / loop.qps());
  report->Set("common.pool.threaded_aborts",
              static_cast<double>(threaded.aborts));
  report->Set("common.pool.tasks_per_query",
              static_cast<double>(traced.pool_tasks) /
                  static_cast<double>(traced.queries));
  report->Set("workload.make_query_us_p50",
              traced.make_query_seconds.Quantile(0.5) * 1e6);
  report->Set("engine.optimize_us_p50",
              traced.optimize_seconds.Quantile(0.5) * 1e6);
  for (size_t i = 0; i < oracle->names().size(); ++i) {
    report->Set("engine.execute_ms_p50." + oracle->names()[i],
                traced.execute_seconds[i].Quantile(0.5) * 1e3);
  }
  for (size_t k = 0; k < kOps.size(); ++k) {
    report->Set(std::string("engine.op_share.") + kOps[k].second,
                traced.op_seconds[k] / traced.execute_total_seconds);
  }
  report->Set("engine.rows_in_per_row_out", traced.rows_in / traced.rows_out);
  std::map<std::string, telemetry::SpanAggregate> rollup;
  for (size_t k = 0; k < kSpanNames.size(); ++k) {
    rollup[kSpanNames[k]] = traced.rollup.by_name[k];
  }
  AddSpanMetrics(rollup, "query", traced.rollup.spans, traced.rollup.dropped,
                 report);
}

}  // namespace ads::perfbench
