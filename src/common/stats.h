#ifndef ADS_COMMON_STATS_H_
#define ADS_COMMON_STATS_H_

#include <cstddef>
#include <mutex>
#include <vector>

namespace ads::common {

/// Running first/second moments (Welford). O(1) memory, numerically stable.
class RunningMoments {
 public:
  void Add(double x);
  /// Merges another accumulator into this one (parallel-friendly).
  void Merge(const RunningMoments& other);

  size_t count() const { return count_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  /// Population variance; 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The standard tail-latency digest of a QuantileSketch (see Summary()).
/// All fields are 0 for an empty sketch.
struct QuantileSummary {
  size_t count = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Exact quantile tracker: stores all samples and keeps a sorted prefix of
/// them. A query sorts only the samples added since the last query and
/// merges them into that prefix, so the simulator's add-one-then-read
/// pattern costs a binary search plus a shift, not a full sort. Fine for
/// simulation-scale data (up to a few million points).
///
/// Results equal a full std::sort of every sample, except that the
/// relative order of -0.0 and +0.0 may differ (std::sort is not stable,
/// and the two compare equal), which can flip the sign of a zero
/// quantile. NaN samples are unsupported, as with std::sort.
///
/// Thread-safety contract: writes (Add/Merge, the targets of assignment)
/// are externally synchronized by the owner, but the const query methods
/// may be called concurrently with each other — the tail merge they share
/// runs under an internal mutex, so two readers racing to be first never
/// scribble over the same buffer.
class QuantileSketch {
 public:
  QuantileSketch() = default;
  /// Copying locks `other` so its tail merge cannot race the element copy.
  QuantileSketch(const QuantileSketch& other);
  QuantileSketch& operator=(const QuantileSketch& other);

  void Add(double x);
  /// Appends another sketch's samples (parallel-friendly: workers fill
  /// local sketches, then the caller merges them in a fixed order).
  void Merge(const QuantileSketch& other);
  /// Returns the q-quantile (q in [0,1]) using linear interpolation.
  /// Returns 0 for an empty sketch.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  size_t count() const { return values_.size(); }
  size_t Count() const { return values_.size(); }
  /// One-call p50/p95/p99/max digest, so callers reporting tail latency
  /// do not hand-roll percentile triples. Sorts (and locks) once for the
  /// whole digest — this sits on hot telemetry paths where four separate
  /// mutex acquisitions per snapshot showed up.
  QuantileSummary Summary() const;

 private:
  /// Sorts the unsorted tail and merges it into the sorted prefix under
  /// sort_mu_; after it returns the buffer is fully sorted and stable
  /// until the next (externally synchronized) write.
  void EnsureSorted() const;
  /// Linear-interpolated q-quantile over an already-sorted buffer.
  /// Requires EnsureSorted() to have run and values_ non-empty.
  double QuantileSorted(double q) const;

  mutable std::mutex sort_mu_;
  mutable std::vector<double> values_;
  /// values_[0, sorted_prefix_) is ascending; the rest is insertion order.
  mutable size_t sorted_prefix_ = 0;
};

/// Fixed-bucket histogram over [lo, hi). Out-of-range samples are counted
/// explicitly (underflow / overflow) instead of being folded into the edge
/// buckets, and non-finite samples (NaN, +/-inf) are quarantined in their
/// own counter — so bucket counts and Fraction() describe exactly the
/// in-range mass, and a polluted input stream is visible rather than
/// silently corrupting the tails.
class Histogram {
 public:
  /// Sentinel returned by BucketOf for samples no bucket holds.
  static constexpr size_t kNoBucket = static_cast<size_t>(-1);

  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);
  size_t bucket_count() const { return counts_.size(); }
  /// Bucket index for an in-range sample; kNoBucket for x < lo, x >= hi,
  /// or non-finite x (the latter would otherwise be UB in the float ->
  /// size_t cast).
  size_t BucketOf(double x) const;
  size_t count(size_t bucket) const { return counts_[bucket]; }
  /// In-range samples only (the sum of the bucket counts).
  size_t total() const { return total_; }
  /// Samples below lo / at-or-above hi / non-finite, respectively.
  size_t underflow() const { return underflow_; }
  size_t overflow() const { return overflow_; }
  size_t non_finite() const { return non_finite_; }
  /// Every sample ever Add()ed, in-range or not.
  size_t samples() const {
    return total_ + underflow_ + overflow_ + non_finite_;
  }
  double BucketLow(size_t bucket) const;
  double BucketHigh(size_t bucket) const;
  /// Fraction of in-range mass in the given bucket (0 if none).
  double Fraction(size_t bucket) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
  size_t underflow_ = 0;
  size_t overflow_ = 0;
  size_t non_finite_ = 0;
};

/// Regression error metrics. All return 0 on empty input.
double MeanAbsoluteError(const std::vector<double>& truth,
                         const std::vector<double>& pred);
double RootMeanSquaredError(const std::vector<double>& truth,
                            const std::vector<double>& pred);
/// Mean absolute percentage error; terms with |truth| < eps are skipped.
double MeanAbsolutePercentageError(const std::vector<double>& truth,
                                   const std::vector<double>& pred,
                                   double eps = 1e-9);
/// Coefficient of determination; 0 if truth has zero variance.
double RSquared(const std::vector<double>& truth,
                const std::vector<double>& pred);

/// Q-error, the standard cardinality-estimation metric:
/// max(truth/pred, pred/truth) with both clamped below by `floor`.
double QError(double truth, double pred, double floor = 1.0);

}  // namespace ads::common

#endif  // ADS_COMMON_STATS_H_
