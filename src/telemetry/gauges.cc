#include "telemetry/gauges.h"

namespace ads::telemetry {

void ScopedGauges::Record(const std::string& name, double time, double value,
                          const LabelSet& extra) const {
  if (store_ == nullptr) return;
  if (extra.empty()) {
    (void)store_->Record(prefix_ + name, labels_, time, value);
    return;
  }
  LabelSet merged = labels_;
  for (const auto& [key, val] : extra) merged[key] = val;
  (void)store_->Record(prefix_ + name, merged, time, value);
}

}  // namespace ads::telemetry
