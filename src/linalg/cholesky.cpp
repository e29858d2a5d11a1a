#include "linalg/cholesky.h"

#include <cmath>
#include <stdexcept>

#include "common/check.h"
#include "common/spans.h"

namespace mfbo::linalg {

bool Cholesky::tryFactor(const Matrix& a, double jitter, Matrix& l_out) {
  const std::size_t n = a.rows();
  l_out = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j) + jitter;
    for (std::size_t k = 0; k < j; ++k) diag -= l_out(j, k) * l_out(j, k);
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l_out(j, j) = ljj;
    const double inv_ljj = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = a(i, j);
      for (std::size_t k = 0; k < j; ++k) acc -= l_out(i, k) * l_out(j, k);
      l_out(i, j) = acc * inv_ljj;
    }
  }
  return true;
}

Cholesky Cholesky::factor(const Matrix& a) {
  MFBO_CHECK(a.rows() == a.cols(), "matrix must be square, got ", a.rows(),
             "x", a.cols());
  MFBO_CHECK(a.rows() > 0, "matrix must be non-empty");
  MFBO_CHECK(a.allFinite(), "matrix has non-finite entries");
  const spans::ScopedSpan factor_span("cholesky_factor");
  Matrix l;
  if (!tryFactor(a, 0.0, l))
    throw std::runtime_error("Cholesky: matrix is not positive definite");
  return Cholesky(std::move(l), 0.0);
}

Cholesky Cholesky::factorWithJitter(const Matrix& a, double initial_jitter,
                                    double max_jitter) {
  MFBO_CHECK(a.rows() == a.cols(), "matrix must be square, got ", a.rows(),
             "x", a.cols());
  MFBO_CHECK(a.rows() > 0, "matrix must be non-empty");
  MFBO_CHECK(a.allFinite(), "matrix has non-finite entries");
  const spans::ScopedSpan factor_span("cholesky_factor");
  Matrix l;
  if (tryFactor(a, 0.0, l)) return Cholesky(std::move(l), 0.0);
  // Invisible-at-runtime numerics made visible: every rung of the jitter
  // ladder is a near-singular Gram matrix the GP layer had to paper over.
  spans::addCounter("linalg.cholesky.jittered_factorizations");
  // Scale jitter relative to the mean diagonal so the retry ladder is
  // meaningful for both unit-variance and raw-scale covariances.
  double diag_mean = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) diag_mean += a(i, i);
  diag_mean = std::abs(diag_mean) / static_cast<double>(a.rows());
  const double scale = diag_mean > 0.0 ? diag_mean : 1.0;
  for (double j = initial_jitter; j <= max_jitter * 1.0000001; j *= 10.0) {
    spans::addCounter("jitter_retries");
    if (tryFactor(a, j * scale, l)) return Cholesky(std::move(l), j * scale);
  }
  spans::addCounter("linalg.cholesky.jitter_exhausted");
  throw std::runtime_error(
      "Cholesky: matrix not positive definite even with maximum jitter");
}

bool Cholesky::appendRow(const Vector& b, double c) {
  const std::size_t n = dim();
  MFBO_CHECK(b.size() == n, "cross-term size ", b.size(),
             " does not match dim ", n);
  MFBO_CHECK(b.allFinite() && std::isfinite(c),
             "extension column has non-finite entries");
  const spans::ScopedSpan append_span("cholesky_append");
  // New off-diagonal row: l = L⁻¹ b (forward substitution, O(n²)); new
  // pivot: c + jitter − ‖l‖². Identical arithmetic to what tryFactor would
  // perform on the extended matrix, so a successful append agrees with a
  // from-scratch refactorization up to summation-order roundoff.
  const Vector l = solveLower(b);
  const double pivot = c + jitter_ - l.squaredNorm();
  if (!(pivot > 0.0) || !std::isfinite(pivot)) {
    spans::addCounter("linalg.cholesky.append_rejected");
    return false;
  }
  Matrix grown(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) grown(i, j) = l_(i, j);
  for (std::size_t j = 0; j < n; ++j) grown(n, j) = l[j];
  grown(n, n) = std::sqrt(pivot);
  l_ = std::move(grown);
  spans::addCounter("linalg.cholesky.appended_rows");
  return true;
}

Vector Cholesky::solveLower(const Vector& b) const {
  const std::size_t n = dim();
  MFBO_CHECK(b.size() == n, "rhs size ", b.size(), " does not match dim ", n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (std::size_t j = 0; j < i; ++j) acc -= l_(i, j) * y[j];
    y[i] = acc / l_(i, i);
  }
  return y;
}

Vector Cholesky::solveUpper(const Vector& y) const {
  const std::size_t n = dim();
  MFBO_CHECK(y.size() == n, "rhs size ", y.size(), " does not match dim ", n);
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= l_(j, ii) * x[j];
    x[ii] = acc / l_(ii, ii);
  }
  return x;
}

Vector Cholesky::solve(const Vector& b) const {
  return solveUpper(solveLower(b));
}

Matrix Cholesky::solveMatrix(const Matrix& b) const {
  MFBO_CHECK(b.rows() == dim(), "rhs rows ", b.rows(),
             " do not match dim ", dim());
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c)
    x.setCol(c, solve(b.col(c)));
  return x;
}

double Cholesky::logDet() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

Matrix Cholesky::inverse() const {
  return solveMatrix(Matrix::identity(dim()));
}

}  // namespace mfbo::linalg
