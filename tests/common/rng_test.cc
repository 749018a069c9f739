#include "common/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace ads::common {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsIndependentOfParentFutureDraws) {
  Rng a(7);
  Rng child = a.Fork();
  double c1 = child.Uniform();
  // Replaying: same seed, same fork point yields the same child stream.
  Rng b(7);
  Rng child2 = b.Fork();
  EXPECT_DOUBLE_EQ(c1, child2.Uniform());
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng r(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(2, 4);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 4);
    saw_lo |= (v == 2);
    saw_hi |= (v == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformMeanApproximatelyHalf) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.Uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng r(13);
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    double v = r.Normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / kN;
  double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(RngTest, ZipfIsSkewedTowardSmallIndices) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) {
    ++counts[static_cast<size_t>(r.Zipf(10, 1.2))];
  }
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[1], counts[8]);
}

// The linear inverse-CDF scan ZipfTable replaced, kept as the oracle: a
// table draw must return the same index and consume the same stream.
int64_t LinearScanZipf(Rng& rng, int64_t n, double s) {
  double total = 0.0;
  for (int64_t k = 0; k < n; ++k) total += 1.0 / std::pow(k + 1, s);
  double u = rng.Uniform(0.0, total);
  double acc = 0.0;
  for (int64_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(k + 1, s);
    if (u <= acc) return k;
  }
  return n - 1;
}

TEST(RngTest, ZipfTableDrawsMatchTheLinearScan) {
  struct Case {
    int64_t n;
    double s;
    uint64_t seed;
  };
  const std::vector<Case> cases = {{1, 0.8, 3},    {2, 0.5, 5},
                                   {25, 0.8, 7},   {1500, 0.5, 11},
                                   {2000, 0.6, 13}, {10, 1.2, 17},
                                   {300, 0.0, 19},  {64, 2.5, 23}};
  for (const Case& c : cases) {
    SCOPED_TRACE("n=" + std::to_string(c.n) + " s=" + std::to_string(c.s));
    const ZipfTable table(c.n, c.s);
    EXPECT_EQ(table.size(), c.n);
    Rng oracle(c.seed);
    Rng sampled(c.seed);
    Rng delegated(c.seed);
    for (int i = 0; i < 2000; ++i) {
      const int64_t want = LinearScanZipf(oracle, c.n, c.s);
      ASSERT_EQ(table.Sample(sampled), want) << "draw " << i;
      ASSERT_EQ(delegated.Zipf(c.n, c.s), want) << "draw " << i;
    }
    // Same number of engine steps consumed: the streams stay in lockstep.
    const uint64_t next = oracle.engine()();
    EXPECT_EQ(sampled.engine()(), next);
    EXPECT_EQ(delegated.engine()(), next);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng r(19);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[r.Categorical(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng r(23);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(r.Pareto(5.0, 2.0), 5.0);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(29);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  r.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, BernoulliProbabilityRespected) {
  Rng r(31);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    if (r.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

// Normal and LogNormal scale one standard draw instead of building a
// distribution per (mean, stddev); for stddev > 0 that must reproduce the
// std distributions bit for bit, or every seeded experiment would drift.
TEST(RngTest, NormalAndLogNormalMatchStdDistributionsBitForBit) {
  const std::pair<double, double> kParams[] = {
      {0.0, 1.0}, {10.0, 2.0}, {-3.0, 0.25}, {1e6, 1e-3}, {0.5, 7.5}};
  for (uint64_t seed : {1ull, 7ull, 42ull, 20231019ull}) {
    for (const auto& [mean, stddev] : kParams) {
      Rng ours(seed);
      std::mt19937_64 theirs(seed);
      for (int i = 0; i < 200; ++i) {
        const double got = ours.Normal(mean, stddev);
        const double want =
            std::normal_distribution<double>(mean, stddev)(theirs);
        ASSERT_EQ(Bits(got), Bits(want))
            << "Normal(" << mean << ", " << stddev << ") seed " << seed
            << " draw " << i;
      }
      Rng ours_log(seed);
      std::mt19937_64 theirs_log(seed);
      for (int i = 0; i < 200; ++i) {
        const double got = ours_log.LogNormal(mean / 1e6, stddev);
        const double want = std::lognormal_distribution<double>(
            mean / 1e6, stddev)(theirs_log);
        ASSERT_EQ(Bits(got), Bits(want))
            << "LogNormal(" << mean / 1e6 << ", " << stddev << ") seed "
            << seed << " draw " << i;
      }
    }
  }
}

// stddev == 0 is a legal "no noise" setting: it returns the mean exactly
// and leaves the engine where a Normal(0, 1) draw would, so turning noise
// off does not shift any later draw from the same stream.
TEST(RngTest, ZeroStddevReturnsMeanAndConsumesAStandardDraw) {
  for (uint64_t seed : {3ull, 99ull}) {
    Rng zero(seed);
    Rng standard(seed);
    for (int i = 0; i < 50; ++i) {
      EXPECT_EQ(zero.Normal(4.25, 0.0), 4.25);
      standard.Normal(0.0, 1.0);
      EXPECT_EQ(zero.LogNormal(0.0, 0.0), 1.0);
      standard.Normal(0.0, 1.0);
    }
    EXPECT_EQ(zero.engine()(), standard.engine()());
  }
}

}  // namespace
}  // namespace ads::common
