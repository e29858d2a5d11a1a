#include "linalg/matrix.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace mfbo::linalg {

// mfbo-lint: allow(C001) — Matrix(n, n) validates on its first statement
Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Vector Matrix::row(std::size_t r) const {
  MFBO_CHECK(r < rows_, "row ", r, " out of range [0,", rows_, ")");
  Vector out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = (*this)(r, c);
  return out;
}

Vector Matrix::col(std::size_t c) const {
  MFBO_CHECK(c < cols_, "col ", c, " out of range [0,", cols_, ")");
  Vector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::setRow(std::size_t r, const Vector& v) {
  MFBO_CHECK(r < rows_, "row ", r, " out of range [0,", rows_, ")");
  MFBO_CHECK(v.size() == cols_, "vector size ", v.size(),
             " does not match cols ", cols_);
  for (std::size_t c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::setCol(std::size_t c, const Vector& v) {
  MFBO_CHECK(c < cols_, "col ", c, " out of range [0,", cols_, ")");
  MFBO_CHECK(v.size() == rows_, "vector size ", v.size(),
             " does not match rows ", rows_);
  for (std::size_t r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  MFBO_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch: ",
             rows_, "x", cols_, " vs ", rhs.rows_, "x", rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  MFBO_CHECK(rows_ == rhs.rows_ && cols_ == rhs.cols_, "shape mismatch: ",
             rows_, "x", cols_, " vs ", rhs.rows_, "x", rhs.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

bool Matrix::allFinite() const {
  return std::all_of(data_.begin(), data_.end(),
                     [](double v) { return std::isfinite(v); });
}

double Matrix::maxAbsDiff(const Matrix& a, const Matrix& b) {
  MFBO_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
             "shape mismatch: ", a.rows(), "x", a.cols(), " vs ", b.rows(),
             "x", b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i)
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  return m;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(Matrix m, double s) { return m *= s; }
Matrix operator*(double s, Matrix m) { return m *= s; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  MFBO_CHECK(a.cols() == b.rows(), "inner dimension mismatch: ", a.cols(),
             " vs ", b.rows());
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Vector operator*(const Matrix& m, const Vector& v) {
  MFBO_CHECK(m.cols() == v.size(), "inner dimension mismatch: ", m.cols(),
             " vs ", v.size());
  Vector out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) acc += m(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

Matrix gramTN(const Matrix& a, const Matrix& b) {
  MFBO_CHECK(a.rows() == b.rows(), "row-count mismatch: ", a.rows(), " vs ",
             b.rows());
  Matrix out(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k)
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aki * b(k, j);
    }
  return out;
}

LuFactor::LuFactor(Matrix a) : lu_(std::move(a)) { factor(); }

void LuFactor::refactor(const Matrix& a) {
  lu_ = a;
  factor();
}

void LuFactor::factor() {
  MFBO_CHECK(lu_.rows() == lu_.cols(), "matrix must be square, got ",
             lu_.rows(), "x", lu_.cols());
  MFBO_CHECK(lu_.rows() > 0, "matrix must be non-empty");
  MFBO_CHECK(lu_.allFinite(), "matrix has non-finite entries");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: bring the largest remaining |entry| in column k up.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300)
      throw std::runtime_error("LuFactor: matrix is numerically singular");
    if (pivot != k) {
      std::swap(perm_[pivot], perm_[k]);
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(pivot, c), lu_(k, c));
    }
    const double inv_piv = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_piv;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

Vector LuFactor::solve(const Vector& b) const {
  Vector x;
  solveInto(b, x);
  return x;
}

void LuFactor::solveInto(const Vector& b, Vector& x) const {
  const std::size_t n = dim();
  MFBO_CHECK(b.size() == n, "rhs size ", b.size(), " does not match dim ", n);
  MFBO_CHECK(&x != &b, "solution vector must not alias the rhs");
  if (x.size() != n) x = Vector(n);
  // Forward substitution with permuted RHS (L has unit diagonal).
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm_[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= lu_(i, j) * x[j];
    x[i] = acc;
  }
  // Backward substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= lu_(ii, j) * x[j];
    x[ii] = acc / lu_(ii, ii);
  }
}

Vector luSolve(Matrix a, Vector b) {
  return LuFactor(std::move(a)).solve(b);
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[[" : " [");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (c) os << ", ";
      os << m(r, c);
    }
    os << (r + 1 == m.rows() ? "]]" : "]\n");
  }
  return os;
}

}  // namespace mfbo::linalg
