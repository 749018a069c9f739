#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace ads::common {
namespace {

TEST(RunningMomentsTest, BasicMoments) {
  RunningMoments m;
  for (double v : {1.0, 2.0, 3.0, 4.0}) m.Add(v);
  EXPECT_EQ(m.count(), 4u);
  EXPECT_DOUBLE_EQ(m.mean(), 2.5);
  EXPECT_DOUBLE_EQ(m.variance(), 1.25);
  EXPECT_DOUBLE_EQ(m.min(), 1.0);
  EXPECT_DOUBLE_EQ(m.max(), 4.0);
  EXPECT_DOUBLE_EQ(m.sum(), 10.0);
}

TEST(RunningMomentsTest, EmptyIsZero) {
  RunningMoments m;
  EXPECT_EQ(m.count(), 0u);
  EXPECT_DOUBLE_EQ(m.mean(), 0.0);
  EXPECT_DOUBLE_EQ(m.variance(), 0.0);
}

TEST(RunningMomentsTest, MergeMatchesSequential) {
  RunningMoments a;
  RunningMoments b;
  RunningMoments all;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    double v = rng.Normal(3.0, 2.0);
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    all.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningMomentsTest, MergeWithEmpty) {
  RunningMoments a;
  a.Add(1.0);
  a.Add(3.0);
  RunningMoments empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningMomentsTest, MergeEmptyWithEmptyStaysEmpty) {
  RunningMoments a;
  RunningMoments b;
  a.Merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(RunningMomentsTest, MergeEmptyWithNonEmptyCopiesExactly) {
  RunningMoments src;
  for (double v : {7.0, 9.0, 11.0}) src.Add(v);
  RunningMoments dst;
  dst.Merge(src);
  EXPECT_EQ(dst.count(), src.count());
  EXPECT_DOUBLE_EQ(dst.mean(), src.mean());
  EXPECT_DOUBLE_EQ(dst.variance(), src.variance());
  EXPECT_DOUBLE_EQ(dst.min(), src.min());
  EXPECT_DOUBLE_EQ(dst.max(), src.max());
}

TEST(RunningMomentsTest, MergeSurvivesCatastrophicCancellation) {
  // Two halves with a huge shared mean and tiny spread: the naive
  // sum-of-squares merge loses all variance digits here; the Welford-style
  // pairwise merge must agree with a single-pass Add to ~1e-9 relative.
  const double kBase = 1e6;  // variance / mean^2 ~ 1e-11: ~11 digits cancel
  RunningMoments left;
  RunningMoments right;
  RunningMoments single;
  for (int i = 0; i < 1000; ++i) {
    double offset = static_cast<double>(i % 7);
    double lo = kBase - offset;
    double hi = kBase + offset;
    left.Add(lo);
    right.Add(hi);
    single.Add(lo);
    single.Add(hi);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), single.count());
  EXPECT_NEAR(left.mean() / single.mean(), 1.0, 1e-9);
  ASSERT_GT(single.variance(), 0.0);
  EXPECT_NEAR(left.variance() / single.variance(), 1.0, 1e-9);
}

TEST(QuantileSketchTest, MedianAndTails) {
  QuantileSketch q;
  for (int i = 1; i <= 101; ++i) q.Add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(q.Median(), 51.0);
  EXPECT_DOUBLE_EQ(q.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q.Quantile(1.0), 101.0);
  EXPECT_NEAR(q.Quantile(0.99), 100.0, 1.0);
}

TEST(QuantileSketchTest, EmptyReturnsZero) {
  QuantileSketch q;
  EXPECT_DOUBLE_EQ(q.Quantile(0.5), 0.0);
}

TEST(QuantileSketchTest, SummaryMatchesIndividualQuantiles) {
  QuantileSketch q;
  for (int i = 1; i <= 500; ++i) q.Add(static_cast<double>(i));
  QuantileSummary s = q.Summary();
  EXPECT_EQ(s.count, 500u);
  EXPECT_EQ(s.count, q.Count());
  EXPECT_DOUBLE_EQ(s.p50, q.Quantile(0.5));
  EXPECT_DOUBLE_EQ(s.p95, q.Quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, q.Quantile(0.99));
  EXPECT_DOUBLE_EQ(s.max, 500.0);
}

TEST(QuantileSketchTest, SummaryOfEmptySketchIsAllZero) {
  QuantileSummary s = QuantileSketch().Summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(QuantileSketchTest, InterleavedAddAndQuery) {
  QuantileSketch q;
  q.Add(10.0);
  EXPECT_DOUBLE_EQ(q.Median(), 10.0);
  q.Add(20.0);
  q.Add(0.0);
  EXPECT_DOUBLE_EQ(q.Median(), 10.0);
}

// ---------------------------------------------------------------------
// Property test: the incremental sorted-prefix sketch against a reference
// that copies every sample and runs a full std::sort on each read.
// ---------------------------------------------------------------------

/// Shadow of a QuantileSketch: the same samples, no incremental state.
struct ReferenceSketch {
  std::vector<double> samples;

  std::vector<double> Sorted() const {
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    return v;
  }
  static double QuantileOf(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    double pos = q * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
  }
  double Quantile(double q) const { return QuantileOf(Sorted(), q); }
  QuantileSummary Summary() const {
    QuantileSummary s;
    s.count = samples.size();
    if (samples.empty()) return s;
    std::vector<double> sorted = Sorted();
    s.p50 = QuantileOf(sorted, 0.5);
    s.p95 = QuantileOf(sorted, 0.95);
    s.p99 = QuantileOf(sorted, 0.99);
    s.max = sorted.back();
    return s;
  }
};

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Heavy duplicates: most samples come from a 9-value grid, the rest are
/// continuous. All non-negative, so the +/-0.0 ordering caveat never
/// applies.
double DrawSample(Rng& rng) {
  if (rng.Bernoulli(0.7)) {
    return 0.25 * static_cast<double>(rng.UniformInt(0, 8));
  }
  return rng.Uniform(0.0, 3.0);
}

/// Builds a sketch plus its shadow with a random mix of adds and reads,
/// so the sketch has a partly sorted prefix when it is merged or copied.
void FillPair(Rng& rng, QuantileSketch* sketch, ReferenceSketch* ref) {
  const int64_t adds = rng.UniformInt(0, 12);
  for (int64_t i = 0; i < adds; ++i) {
    const double x = DrawSample(rng);
    sketch->Add(x);
    ref->samples.push_back(x);
    if (rng.Bernoulli(0.3)) sketch->Quantile(0.5);
  }
}

TEST(QuantileSketchPropertyTest, InterleavingsMatchFullSortReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    QuantileSketch sketch;
    ReferenceSketch ref;
    size_t reads = 0;
    for (int step = 0; step < 600; ++step) {
      const int64_t op = rng.UniformInt(0, 9);
      if (op <= 2) {  // single Add: the one-element tail path
        const double x = DrawSample(rng);
        sketch.Add(x);
        ref.samples.push_back(x);
      } else if (op == 3) {  // a burst of Adds: the sort-and-merge path
        const int64_t burst = rng.UniformInt(2, 40);
        for (int64_t i = 0; i < burst; ++i) {
          const double x = DrawSample(rng);
          sketch.Add(x);
          ref.samples.push_back(x);
        }
      } else if (op == 4) {  // Merge a partly queried sketch
        QuantileSketch other;
        ReferenceSketch other_ref;
        FillPair(rng, &other, &other_ref);
        sketch.Merge(other);
        ref.samples.insert(ref.samples.end(), other_ref.samples.begin(),
                           other_ref.samples.end());
      } else if (op == 5) {  // copy-construct, then carry on with the copy
        QuantileSketch copy(sketch);
        sketch = QuantileSketch();
        sketch = copy;
      } else if (op == 6) {  // assign over a non-empty sketch
        QuantileSketch target;
        ReferenceSketch unused;
        FillPair(rng, &target, &unused);
        target = sketch;
        sketch = target;
      } else if (op <= 8) {
        const double q = rng.Bernoulli(0.2)
                             ? static_cast<double>(rng.UniformInt(0, 1))
                             : rng.Uniform(0.0, 1.0);
        const double got = sketch.Quantile(q);
        const double want = ref.Quantile(q);
        ASSERT_TRUE(BitEqual(got, want))
            << "seed " << seed << " step " << step << " q " << q << ": "
            << got << " vs " << want;
        ++reads;
      } else {
        const QuantileSummary got = sketch.Summary();
        const QuantileSummary want = ref.Summary();
        ASSERT_EQ(got.count, want.count) << "seed " << seed;
        ASSERT_TRUE(BitEqual(got.p50, want.p50)) << "seed " << seed;
        ASSERT_TRUE(BitEqual(got.p95, want.p95)) << "seed " << seed;
        ASSERT_TRUE(BitEqual(got.p99, want.p99)) << "seed " << seed;
        ASSERT_TRUE(BitEqual(got.max, want.max)) << "seed " << seed;
        ++reads;
      }
      ASSERT_EQ(sketch.count(), ref.samples.size());
    }
    EXPECT_GT(reads, 100u);
  }
}

TEST(QuantileSketchPropertyTest, AddThenReadEveryTimeMatchesFullSort) {
  // The simulator's pattern: one Add, then one read, thousands of times.
  Rng rng(99);
  QuantileSketch sketch;
  ReferenceSketch ref;
  for (int i = 0; i < 3000; ++i) {
    const double x = DrawSample(rng);
    sketch.Add(x);
    ref.samples.push_back(x);
    if (i % 97 == 0) {
      ASSERT_TRUE(BitEqual(sketch.Quantile(0.99), ref.Quantile(0.99))) << i;
    } else {
      sketch.Quantile(0.99);
    }
  }
  const QuantileSummary got = sketch.Summary();
  const QuantileSummary want = ref.Summary();
  EXPECT_TRUE(BitEqual(got.p50, want.p50));
  EXPECT_TRUE(BitEqual(got.p99, want.p99));
  EXPECT_TRUE(BitEqual(got.max, want.max));
}

TEST(HistogramTest, BucketsAndFractions) {
  Histogram h(0.0, 10.0, 5);
  h.Add(1.0);   // bucket 0
  h.Add(3.0);   // bucket 1
  h.Add(3.5);   // bucket 1
  h.Add(9.9);   // bucket 4
  h.Add(-5.0);  // underflow, not bucket 0
  h.Add(50.0);  // overflow, not bucket 4
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.samples(), 6u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_DOUBLE_EQ(h.Fraction(1), 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(h.BucketLow(1), 2.0);
  EXPECT_DOUBLE_EQ(h.BucketHigh(1), 4.0);
}

TEST(HistogramTest, OutOfRangeSamplesDoNotCorruptEdgeBuckets) {
  // Regression: BucketOf used to fold x < lo into bucket 0 and x >= hi
  // into the last bucket, so a stream with outliers silently inflated the
  // edge-bucket counts every tail metric reads.
  Histogram h(0.0, 1.0, 4);
  h.Add(0.1);    // bucket 0
  h.Add(0.9);    // bucket 3
  h.Add(-1e9);   // underflow
  h.Add(-0.001); // underflow (just below lo)
  h.Add(1.0);    // overflow (hi itself is exclusive)
  h.Add(7.5);    // overflow
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.underflow(), 2u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 2u);
  EXPECT_EQ(h.samples(), 6u);
  EXPECT_EQ(h.BucketOf(-0.001), Histogram::kNoBucket);
  EXPECT_EQ(h.BucketOf(1.0), Histogram::kNoBucket);
  EXPECT_EQ(h.BucketOf(0.999), 3u);
}

TEST(HistogramTest, NonFiniteSamplesAreQuarantined) {
  // Regression: NaN < lo is false, so a NaN used to fall through to
  // static_cast<size_t>((NaN - lo) / width) — undefined behavior (this
  // test runs in the UBSan CI job). Infinities hit the same cast with an
  // out-of-range result.
  Histogram h(0.0, 10.0, 5);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(-std::numeric_limits<double>::infinity());
  h.Add(5.0);
  EXPECT_EQ(h.non_finite(), 3u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.samples(), 4u);
  EXPECT_EQ(h.BucketOf(std::numeric_limits<double>::quiet_NaN()),
            Histogram::kNoBucket);
  EXPECT_EQ(h.BucketOf(std::numeric_limits<double>::infinity()),
            Histogram::kNoBucket);
  EXPECT_DOUBLE_EQ(h.Fraction(2), 1.0);  // fractions are over in-range mass
}

TEST(CorrelationTest, PerfectAndInverse) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
}

TEST(CorrelationTest, DegenerateIsZero) {
  std::vector<double> x = {1, 1, 1};
  std::vector<double> y = {2, 5, 9};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(ErrorMetricsTest, KnownValues) {
  std::vector<double> truth = {10, 20, 30};
  std::vector<double> pred = {12, 18, 33};
  EXPECT_NEAR(MeanAbsoluteError(truth, pred), (2 + 2 + 3) / 3.0, 1e-12);
  EXPECT_NEAR(RootMeanSquaredError(truth, pred),
              std::sqrt((4 + 4 + 9) / 3.0), 1e-12);
  EXPECT_NEAR(MeanAbsolutePercentageError(truth, pred),
              (0.2 + 0.1 + 0.1) / 3.0, 1e-12);
}

TEST(ErrorMetricsTest, MapeSkipsNearZeroTruth) {
  std::vector<double> truth = {0.0, 10.0};
  std::vector<double> pred = {5.0, 11.0};
  EXPECT_NEAR(MeanAbsolutePercentageError(truth, pred), 0.1, 1e-12);
}

TEST(ErrorMetricsTest, RSquaredPerfectFitIsOne) {
  std::vector<double> truth = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(RSquared(truth, truth), 1.0);
}

TEST(ErrorMetricsTest, RSquaredMeanPredictorIsZero) {
  std::vector<double> truth = {1, 2, 3, 4};
  std::vector<double> pred = {2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(RSquared(truth, pred), 0.0, 1e-12);
}

TEST(QErrorTest, SymmetricAndFloored) {
  EXPECT_DOUBLE_EQ(QError(100, 10), 10.0);
  EXPECT_DOUBLE_EQ(QError(10, 100), 10.0);
  EXPECT_DOUBLE_EQ(QError(100, 100), 1.0);
  EXPECT_DOUBLE_EQ(QError(0.0, 0.0), 1.0);  // floor clamps both to 1
}

}  // namespace
}  // namespace ads::common
