// mfbo::linalg — dense row-major real matrix.
//
// Covers exactly what exact GP regression and a small MNA circuit solver
// need: products, transpose, row/col access, and LU solving (for the
// non-symmetric MNA Jacobians). Symmetric positive-definite paths live in
// cholesky.h.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <vector>

#include "common/check.h"
#include "linalg/vector.h"

namespace mfbo::linalg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows×cols matrix.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}
  /// rows×cols matrix with every entry set to @p value.
  Matrix(std::size_t rows, std::size_t cols, double value)
      : rows_(rows), cols_(cols), data_(rows * cols, value) {}

  /// Identity matrix of dimension n.
  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // Element access sits inside O(n³) kernels, so it is checked only in
  // debug / hardened builds (MFBO_DCHECK); the bulk accessors below
  // (row/col/setRow/setCol) are checked in every build type.
  double& operator()(std::size_t r, std::size_t c) {
    MFBO_DCHECK(r < rows_ && c < cols_, "(", r, ",", c, ") out of ", rows_,
                "x", cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    MFBO_DCHECK(r < rows_ && c < cols_, "(", r, ",", c, ") out of ", rows_,
                "x", cols_);
    return data_[r * cols_ + c];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Copy of row r as a Vector.
  Vector row(std::size_t r) const;
  /// Copy of column c as a Vector.
  Vector col(std::size_t c) const;
  /// Overwrite row r with v (dimension must match cols()).
  void setRow(std::size_t r, const Vector& v);
  /// Overwrite column c with v (dimension must match rows()).
  void setCol(std::size_t c, const Vector& v);

  Matrix transpose() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

  /// True if every entry is finite.
  bool allFinite() const;
  /// Maximum |a_ij - b_ij| over all entries; dimensions must agree.
  static double maxAbsDiff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(Matrix m, double s);
Matrix operator*(double s, Matrix m);

/// Matrix-matrix product (naive triple loop; fine for N ≲ 1000).
Matrix operator*(const Matrix& a, const Matrix& b);
/// Matrix-vector product.
Vector operator*(const Matrix& m, const Vector& v);

/// a^T * b without forming the transpose.
Matrix gramTN(const Matrix& a, const Matrix& b);

/// Solve A x = b by partial-pivot LU. Throws std::runtime_error when A is
/// numerically singular. A is square; used by the MNA circuit solver.
Vector luSolve(Matrix a, Vector b);

/// LU factorization with partial pivoting, reusable across multiple
/// right-hand sides and, through refactor(), across matrices of one size:
/// the circuit simulator's Newton loop factors every iteration's Jacobian
/// into the same storage and solves into the same vector, allocating
/// nothing once sized.
class LuFactor {
 public:
  /// Empty factor; refactor() before solving.
  LuFactor() = default;
  /// Factor @p a in place. Throws std::runtime_error if singular.
  explicit LuFactor(Matrix a);

  /// Factor a copy of @p a into this object's storage (no allocation once
  /// sized for a's dimension), with the constructor's checks and
  /// arithmetic. Throws std::runtime_error if singular, leaving the factor
  /// unusable until the next successful refactor().
  void refactor(const Matrix& a);

  /// Solve A x = b for the factored A.
  Vector solve(const Vector& b) const;
  /// Solve A x = b into @p x (resized to dim(); no allocation once sized).
  /// @p x must not be @p b.
  void solveInto(const Vector& b, Vector& x) const;

  std::size_t dim() const { return lu_.rows(); }

 private:
  /// Check and factor lu_ in place, resetting the permutation.
  void factor();

  Matrix lu_;                  // combined L (unit diagonal) and U factors
  std::vector<std::size_t> perm_;  // row permutation
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace mfbo::linalg
