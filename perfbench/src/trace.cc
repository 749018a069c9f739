#include "trace.h"

#include <cstdio>
#include <filesystem>

namespace ads::perfbench {

TraceSession::TraceSession(size_t max_spans) : max_spans_(max_spans) {}

telemetry::SpanId TraceSession::Root(const std::string& name, double start) {
  if (tracer_.size() >= max_spans_) {
    dropped_.fetch_add(1);
    return telemetry::kNoSpan;
  }
  return tracer_.StartSpan("bench", name, telemetry::kNoSpan, start);
}

void TraceSession::Child(const std::string& name, telemetry::SpanId parent,
                         double start, double end) {
  if (parent == telemetry::kNoSpan) return;
  if (tracer_.size() >= 2 * max_spans_) {  // hard cap for wide roots
    dropped_.fetch_add(1);
    return;
  }
  tracer_.EndSpan(tracer_.StartSpan("bench", name, parent, start), end);
}

void TraceSession::End(telemetry::SpanId id, double end) {
  tracer_.EndSpan(id, end);
}

std::map<std::string, telemetry::SpanAggregate> TraceSession::Rollup() const {
  return telemetry::SpanTree(tracer_.Snapshot()).AggregateByName();
}

bool TraceSession::Write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = telemetry::ChromeTraceJson(tracer_.Snapshot());
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

void TraceSession::AddMetrics(const std::string& root,
                              perfbench::Report* report) const {
  AddSpanMetrics(Rollup(), root, spans(), dropped(), report);
}

void AddSpanMetrics(
    const std::map<std::string, telemetry::SpanAggregate>& rollup,
    const std::string& root, size_t spans, size_t dropped, Report* report) {
  auto it = rollup.find(root);
  const double base = it == rollup.end() ? 0.0 : it->second.total_seconds;
  for (const auto& [name, agg] : rollup) {
    const std::string metric = "span." + name + ".self_share";
    if (base > 0.0 && report->Wants(metric)) {
      report->Set(metric, agg.self_seconds / base);
    }
  }
  report->Set("trace.spans", static_cast<double>(spans));
  report->Set("trace.dropped", static_cast<double>(dropped));
}

}  // namespace ads::perfbench
