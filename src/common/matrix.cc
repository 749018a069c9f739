#include "common/matrix.h"

#include <cmath>

#include "common/logging.h"

namespace ads::common {

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) t.At(c, r) = At(r, c);
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  ADS_CHECK(cols_ == other.rows_) << "matmul shape mismatch";
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      double v = At(r, k);
      if (v == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out.At(r, c) += v * other.At(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVector(const std::vector<double>& v) const {
  ADS_CHECK(cols_ == v.size()) << "matvec shape mismatch";
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (size_t c = 0; c < cols_; ++c) acc += At(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Result<std::vector<double>> Matrix::CholeskySolve(
    const std::vector<double>& b) const {
  if (rows_ != cols_) {
    return Status::InvalidArgument("CholeskySolve on non-square matrix");
  }
  if (b.size() != rows_) {
    return Status::InvalidArgument("CholeskySolve rhs size mismatch");
  }
  size_t n = rows_;
  // Lower-triangular factor L with this = L L^T.
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = At(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l.At(i, k) * l.At(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition("matrix not positive definite");
        }
        l.At(i, j) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  // Forward solve L z = b.
  std::vector<double> z(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l.At(i, k) * z[k];
    z[i] = sum / l.At(i, i);
  }
  // Back solve L^T x = z.
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    size_t i = ii - 1;
    double sum = z[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l.At(k, i) * x[k];
    x[i] = sum / l.At(i, i);
  }
  return x;
}

Result<std::vector<double>> SolveLeastSquares(const Matrix& x,
                                              const std::vector<double>& y,
                                              double ridge) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("least squares: X rows != y length");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("least squares: empty design matrix");
  }
  Matrix xt = x.Transpose();
  Matrix gram = xt.Multiply(x);
  for (size_t i = 0; i < gram.rows(); ++i) {
    gram.At(i, i) += ridge;
  }
  std::vector<double> xty = xt.MultiplyVector(y);
  Result<std::vector<double>> beta = gram.CholeskySolve(xty);
  if (beta.ok()) return beta;
  // Degenerate Gram matrix (collinear features, no ridge): fall back to a
  // tiny ridge, which is standard practice for telemetry features.
  for (size_t i = 0; i < gram.rows(); ++i) gram.At(i, i) += 1e-8;
  return gram.CholeskySolve(xty);
}

}  // namespace ads::common
