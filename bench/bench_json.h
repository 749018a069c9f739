#ifndef ADS_BENCH_BENCH_JSON_H_
#define ADS_BENCH_BENCH_JSON_H_

// Metric recording and the one JSON layout every P-bench writes:
//
//   {
//     "bench": "<binary name>",
//     "smoke": true|false,
//     "simd": "<active SIMD dispatch tier>",
//     "metrics": {
//       "<metric>": <value, %.17g>,
//       ...
//     }
//   }
//
// Metrics keep the order they were recorded in, so the file diffs cleanly
// run to run.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/simd.h"

namespace ads::bench {

/// Every metric recorded so far, in recording order.
inline std::vector<std::pair<std::string, double>> g_metrics;

inline void Metric(const std::string& name, double value) {
  g_metrics.emplace_back(name, value);
}

/// Writes g_metrics to `path` in the layout above, then prints one
/// "wrote N metrics to PATH" line to stdout.
inline void WriteJson(const std::string& path, const char* bench, bool smoke) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ADS_CHECK(f != nullptr) << "cannot open metrics output: " << path;
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"simd\": \"%s\",\n",
               common::SimdLevelName(common::ActiveSimdLevel()));
  std::fprintf(f, "  \"metrics\": {\n");
  for (size_t i = 0; i < g_metrics.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.17g%s\n", g_metrics[i].first.c_str(),
                 g_metrics[i].second, i + 1 < g_metrics.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu metrics to %s\n", g_metrics.size(), path.c_str());
}

}  // namespace ads::bench

#endif  // ADS_BENCH_BENCH_JSON_H_
