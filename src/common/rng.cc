#include "common/rng.h"

#include <algorithm>
#include <cmath>

namespace ads::common {

int64_t Rng::Zipf(int64_t n, double s) {
  return ZipfTable(n, s).Sample(*this);
}

ZipfTable::ZipfTable(int64_t n, double s) {
  ADS_CHECK(n > 0) << "Zipf over empty support";
  cumulative_.reserve(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(k + 1, s);
    cumulative_.push_back(total);
  }
}

int64_t ZipfTable::Sample(Rng& rng) const {
  // Inverse CDF: the first k with u <= cumulative[k].
  const double u = rng.Uniform(0.0, cumulative_.back());
  const auto it =
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return it == cumulative_.end() ? size() - 1 : it - cumulative_.begin();
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  ADS_CHECK(!weights.empty()) << "Categorical over empty weights";
  double total = 0.0;
  for (double w : weights) total += w;
  double u = Uniform(0.0, total);
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u <= acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace ads::common
