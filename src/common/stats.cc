#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/logging.h"

namespace ads::common {

void RunningMoments::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningMoments::Merge(const RunningMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  size_t n = count_ + other.count_;
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  mean_ += delta * nb / static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * na * nb / static_cast<double>(n);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = n;
}

double RunningMoments::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double RunningMoments::stddev() const { return std::sqrt(variance()); }

QuantileSketch::QuantileSketch(const QuantileSketch& other) {
  std::lock_guard<std::mutex> lock(other.sort_mu_);
  values_ = other.values_;
  sorted_prefix_ = other.sorted_prefix_;
}

QuantileSketch& QuantileSketch::operator=(const QuantileSketch& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(sort_mu_, other.sort_mu_);
  values_ = other.values_;
  sorted_prefix_ = other.sorted_prefix_;
  return *this;
}

void QuantileSketch::Add(double x) { values_.push_back(x); }

void QuantileSketch::Merge(const QuantileSketch& other) {
  // Appended samples join the unsorted tail; the prefix stays sorted.
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

void QuantileSketch::EnsureSorted() const {
  std::lock_guard<std::mutex> lock(sort_mu_);
  const size_t n = values_.size();
  if (sorted_prefix_ == n) return;
  const auto mid =
      values_.begin() + static_cast<std::ptrdiff_t>(sorted_prefix_);
  if (n - sorted_prefix_ == 1) {
    // The simulator reads after every Add: one new sample goes in by
    // binary search and a shift, with no allocation (inplace_merge would
    // allocate a temporary buffer on every call).
    const double x = values_.back();
    const auto pos = std::upper_bound(values_.begin(), mid, x);
    std::move_backward(pos, mid, values_.end());
    *pos = x;
  } else {
    std::sort(mid, values_.end());
    std::inplace_merge(values_.begin(), mid, values_.end());
  }
  sorted_prefix_ = n;
}

QuantileSummary QuantileSketch::Summary() const {
  QuantileSummary s;
  s.count = values_.size();
  if (values_.empty()) return s;
  // One sort, one lock: the whole digest reads the stable sorted buffer
  // directly instead of re-acquiring the sort mutex per percentile.
  EnsureSorted();
  s.p50 = QuantileSorted(0.5);
  s.p95 = QuantileSorted(0.95);
  s.p99 = QuantileSorted(0.99);
  s.max = values_.back();  // EnsureSorted() sorted the samples ascending
  return s;
}

double QuantileSketch::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  EnsureSorted();
  return QuantileSorted(q);
}

double QuantileSketch::QuantileSorted(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  double pos = q * static_cast<double>(values_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0) {
  ADS_CHECK(hi > lo) << "Histogram range inverted";
  ADS_CHECK(buckets > 0) << "Histogram needs at least one bucket";
}

size_t Histogram::BucketOf(double x) const {
  // Non-finite first: NaN fails every comparison below, and without this
  // guard it would reach the float -> size_t cast, which is UB.
  if (!std::isfinite(x)) return kNoBucket;
  if (x < lo_) return kNoBucket;  // underflow
  if (x >= hi_) return kNoBucket;  // overflow
  size_t b = static_cast<size_t>((x - lo_) / width_);
  // Rounding in (x - lo) / width can land exactly on bucket_count for
  // x just under hi; clamp that edge case into the last bucket.
  return std::min(b, counts_.size() - 1);
}

void Histogram::Add(double x) {
  if (!std::isfinite(x)) {
    ++non_finite_;
    return;
  }
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  ++counts_[BucketOf(x)];
  ++total_;
}

double Histogram::BucketLow(size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket);
}

double Histogram::BucketHigh(size_t bucket) const {
  return lo_ + width_ * static_cast<double>(bucket + 1);
}

double Histogram::Fraction(size_t bucket) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bucket]) / static_cast<double>(total_);
}

double PearsonCorrelation(const std::vector<double>& x,
                          const std::vector<double>& y) {
  ADS_CHECK(x.size() == y.size()) << "correlation length mismatch";
  size_t n = x.size();
  if (n == 0) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double MeanAbsoluteError(const std::vector<double>& truth,
                         const std::vector<double>& pred) {
  ADS_CHECK(truth.size() == pred.size()) << "MAE length mismatch";
  if (truth.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) s += std::abs(truth[i] - pred[i]);
  return s / static_cast<double>(truth.size());
}

double RootMeanSquaredError(const std::vector<double>& truth,
                            const std::vector<double>& pred) {
  ADS_CHECK(truth.size() == pred.size()) << "RMSE length mismatch";
  if (truth.empty()) return 0.0;
  double s = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    double d = truth[i] - pred[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(truth.size()));
}

double MeanAbsolutePercentageError(const std::vector<double>& truth,
                                   const std::vector<double>& pred,
                                   double eps) {
  ADS_CHECK(truth.size() == pred.size()) << "MAPE length mismatch";
  double s = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < truth.size(); ++i) {
    if (std::abs(truth[i]) < eps) continue;
    s += std::abs((truth[i] - pred[i]) / truth[i]);
    ++n;
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

double RSquared(const std::vector<double>& truth,
                const std::vector<double>& pred) {
  ADS_CHECK(truth.size() == pred.size()) << "R2 length mismatch";
  if (truth.empty()) return 0.0;
  double mean = 0.0;
  for (double t : truth) mean += t;
  mean /= static_cast<double>(truth.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - mean) * (truth[i] - mean);
  }
  if (ss_tot <= 0.0) return 0.0;
  return 1.0 - ss_res / ss_tot;
}

double QError(double truth, double pred, double floor) {
  double t = std::max(truth, floor);
  double p = std::max(pred, floor);
  return std::max(t / p, p / t);
}

}  // namespace ads::common
