#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstddef>
#include <map>
#include <string>

#include "report.h"
#include "telemetry/span.h"
#include "telemetry/span_analysis.h"

namespace ads::perfbench {

/// Spans the benchmark records around its calls into the program, kept in
/// a telemetry::Tracer with a hard cap so a long run stays bounded in
/// memory. A root (one request, query or scenario) is refused once the cap
/// is reached, and its children with it; refusals are counted. Children of
/// an admitted root are always recorded, so admitted trees are whole.
///
/// Timestamps are benchmark seconds (perfbench::Now()). Thread-safe: the
/// serve workload records from the generator and from pool workers.
class TraceSession {
 public:
  explicit TraceSession(size_t max_spans = 80000);
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Opens a root span, or returns kNoSpan when over the cap.
  telemetry::SpanId Root(const std::string& name, double start);
  /// Records a closed child span; no-op under a refused root, and refused
  /// (counted) past twice the cap, which bounds roots with many children.
  void Child(const std::string& name, telemetry::SpanId parent, double start,
             double end);
  void End(telemetry::SpanId id, double end);

  size_t spans() const { return tracer_.size(); }
  size_t dropped() const { return dropped_.load(); }

  /// Per-name rollup (count, total and self seconds) of every span.
  std::map<std::string, telemetry::SpanAggregate> Rollup() const;

  /// Writes the spans as Chrome trace_event JSON to `path` (best effort:
  /// returns false if the file cannot be written).
  bool Write(const std::string& path) const;

  /// AddSpanMetrics over this session's spans.
  void AddMetrics(const std::string& root, perfbench::Report* report) const;

 private:
  const size_t max_spans_;
  telemetry::Tracer tracer_;
  std::atomic<size_t> dropped_{0};
};

/// Adds `span.<name>.self_share` metrics: each span name's self time as a
/// share of the summed duration of `root` spans, plus trace.spans and
/// trace.dropped.
void AddSpanMetrics(
    const std::map<std::string, telemetry::SpanAggregate>& rollup,
    const std::string& root, size_t spans, size_t dropped, Report* report);

}  // namespace ads::perfbench

#endif  // PERFBENCH_TRACE_H_
