#ifndef ADS_COMMON_MATRIX_H_
#define ADS_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/status.h"

namespace ads::common {

/// Dense row-major matrix of doubles, sized for ML-on-telemetry workloads
/// (up to a few thousand columns). Not a BLAS replacement.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& At(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double At(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Contiguous view of one row (rows are row-major, so row r occupies
  /// [RowPtr(r), RowPtr(r) + cols())). The batched-inference kernels walk
  /// rows through these pointers instead of copying per-row vectors.
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }

  /// Copies one row into a fresh vector (scalar Predict interop).
  std::vector<double> Row(size_t r) const {
    return std::vector<double>(RowPtr(r), RowPtr(r) + cols_);
  }

  Matrix Transpose() const;
  Matrix Multiply(const Matrix& other) const;
  std::vector<double> MultiplyVector(const std::vector<double>& v) const;

  /// Solves (this) * x = b for symmetric positive-definite `this` via
  /// Cholesky. Fails with FailedPrecondition if not SPD.
  Result<std::vector<double>> CholeskySolve(const std::vector<double>& b) const;

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Least squares: finds beta minimizing ||X beta - y||^2 + ridge*||beta||^2
/// by solving the normal equations. X is n x d (n >= 1), y has length n.
Result<std::vector<double>> SolveLeastSquares(const Matrix& x,
                                              const std::vector<double>& y,
                                              double ridge = 0.0);

}  // namespace ads::common

#endif  // ADS_COMMON_MATRIX_H_
