#include "common/matrix.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"

namespace ads::common {
namespace {

TEST(MatrixTest, IdentityMultiply) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 2;
  a.At(1, 0) = 3;
  a.At(1, 1) = 4;
  Matrix i(2, 2);
  i.At(0, 0) = 1;
  i.At(1, 1) = 1;
  Matrix p = a.Multiply(i);
  EXPECT_DOUBLE_EQ(p.At(0, 1), 2);
  EXPECT_DOUBLE_EQ(p.At(1, 0), 3);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Matrix a(2, 3);
  int v = 0;
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) a.At(r, c) = v++;
  }
  Matrix t = a.Transpose();
  ASSERT_EQ(t.rows(), 3u);
  ASSERT_EQ(t.cols(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(t.At(c, r), a.At(r, c));
  }
}

TEST(MatrixTest, MultiplyVector) {
  Matrix a(2, 3);
  a.At(0, 0) = 1;
  a.At(0, 1) = 0;
  a.At(0, 2) = 2;
  a.At(1, 0) = 0;
  a.At(1, 1) = 3;
  a.At(1, 2) = 0;
  std::vector<double> v = {1, 2, 3};
  std::vector<double> out = a.MultiplyVector(v);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0], 7);
  EXPECT_DOUBLE_EQ(out[1], 6);
}

TEST(MatrixTest, CholeskySolveKnownSystem) {
  // SPD matrix [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2].
  Matrix a(2, 2);
  a.At(0, 0) = 4;
  a.At(0, 1) = 2;
  a.At(1, 0) = 2;
  a.At(1, 1) = 3;
  auto x = a.CholeskySolve({10, 9});
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.5, 1e-10);
  EXPECT_NEAR((*x)[1], 2.0, 1e-10);
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.At(0, 0) = 1;
  a.At(0, 1) = 5;
  a.At(1, 0) = 5;
  a.At(1, 1) = 1;  // eigenvalues 6, -4
  auto x = a.CholeskySolve({1, 1});
  EXPECT_FALSE(x.ok());
  EXPECT_EQ(x.status().code(), StatusCode::kFailedPrecondition);
}

TEST(MatrixTest, LeastSquaresRecoversLinearModel) {
  // y = 3 + 2*x, with design matrix [1, x].
  Rng rng(42);
  constexpr size_t kN = 200;
  Matrix x(kN, 2);
  std::vector<double> y(kN);
  for (size_t i = 0; i < kN; ++i) {
    double xv = rng.Uniform(0, 10);
    x.At(i, 0) = 1.0;
    x.At(i, 1) = xv;
    y[i] = 3.0 + 2.0 * xv + rng.Normal(0, 0.01);
  }
  auto beta = SolveLeastSquares(x, y);
  ASSERT_TRUE(beta.ok());
  EXPECT_NEAR((*beta)[0], 3.0, 0.05);
  EXPECT_NEAR((*beta)[1], 2.0, 0.01);
}

TEST(MatrixTest, LeastSquaresCollinearFallsBackToRidge) {
  // Two identical columns: Gram matrix singular; should still solve.
  Matrix x(4, 2);
  std::vector<double> y = {2, 4, 6, 8};
  for (size_t i = 0; i < 4; ++i) {
    x.At(i, 0) = static_cast<double>(i + 1);
    x.At(i, 1) = static_cast<double>(i + 1);
  }
  auto beta = SolveLeastSquares(x, y);
  ASSERT_TRUE(beta.ok());
  // Combined slope must reproduce y = 2x.
  EXPECT_NEAR((*beta)[0] + (*beta)[1], 2.0, 1e-3);
}

TEST(MatrixTest, LeastSquaresRejectsShapeMismatch) {
  Matrix x(3, 2);
  auto beta = SolveLeastSquares(x, {1.0, 2.0});
  EXPECT_FALSE(beta.ok());
  EXPECT_EQ(beta.status().code(), StatusCode::kInvalidArgument);
}

// Property sweep: Cholesky solutions of random SPD systems satisfy A x = b.
class SpdSolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(SpdSolveProperty, CholeskySolvesSystem) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  size_t n = static_cast<size_t>(rng.UniformInt(2, 8));
  // Build SPD as A = B B^T + n*I.
  Matrix b(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) b.At(r, c) = rng.Normal();
  }
  Matrix a = b.Multiply(b.Transpose());
  for (size_t i = 0; i < n; ++i) a.At(i, i) += static_cast<double>(n);
  std::vector<double> rhs(n);
  for (auto& v : rhs) v = rng.Normal(0, 5);
  auto x = a.CholeskySolve(rhs);
  ASSERT_TRUE(x.ok());
  std::vector<double> ax = a.MultiplyVector(*x);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, SpdSolveProperty,
                         ::testing::Range(0, 20));

}  // namespace
}  // namespace ads::common
