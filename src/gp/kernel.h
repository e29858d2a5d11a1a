// mfbo::gp — covariance functions.
//
// Two kernels cover the whole paper:
//  * SeArdKernel — the squared-exponential with per-dimension length scales
//    of eq. (2); used for every single-fidelity GP.
//  * NargpKernel — the nonlinear-fusion composite of eq. (9),
//    k_h(z, z') = k1(y_l, y_l')·k2(x, x') + k3(x, x'), evaluated on the
//    augmented input z = [x; f_l(x)].
//
// All hyperparameters live in log space so the trainer can optimize them
// unconstrained; gradients are with respect to the log parameters.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mfbo::gp {

using linalg::Matrix;
using linalg::Vector;

/// Abstract stationary covariance function with trainable log-parameters.
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Dimensionality of the inputs this kernel accepts.
  virtual std::size_t inputDim() const = 0;
  /// Number of trainable (log-space) hyperparameters.
  virtual std::size_t numParams() const = 0;
  /// Current log-space hyperparameters.
  virtual Vector params() const = 0;
  /// Overwrite the log-space hyperparameters (size must match numParams()).
  virtual void setParams(const Vector& p) = 0;
  /// Human-readable name of parameter @p i (for diagnostics).
  virtual std::string paramName(std::size_t i) const = 0;

  /// Covariance k(a, b).
  virtual double eval(const Vector& a, const Vector& b) const = 0;

  /// Accumulate Σ_{ij} w_ij · ∂k(x_i, x_j)/∂θ into @p grad (size
  /// numParams()); w is symmetric. This is the contraction the exact NLML
  /// gradient needs: ∂NLML/∂θ = ½ tr(W · ∂K/∂θ) with W = K⁻¹ − ααᵀ.
  virtual void accumulateWeightedGrad(const std::vector<Vector>& x,
                                      const Matrix& w, Vector& grad) const = 0;

  /// Gram matrix K(X, X).
  Matrix gram(const std::vector<Vector>& x) const;
  /// Cross-covariances (k(x*, x_1), ..., k(x*, x_N)).
  Vector cross(const std::vector<Vector>& x, const Vector& x_star) const;

  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Squared-exponential kernel with automatic relevance determination
/// (paper eq. 2): k(a,b) = σ_f² exp(−½ Σ_i (a_i−b_i)²/l_i²).
///
/// Parameters (log space): [log σ_f, log l_1, ..., log l_d].
class SeArdKernel final : public Kernel {
 public:
  /// Unit signal variance and all length scales = @p lengthscale.
  explicit SeArdKernel(std::size_t dim, double sigma_f = 1.0,
                       double lengthscale = 0.5);

  std::size_t inputDim() const override { return log_l_.size(); }
  std::size_t numParams() const override { return 1 + log_l_.size(); }
  Vector params() const override;
  void setParams(const Vector& p) override;
  std::string paramName(std::size_t i) const override;

  double eval(const Vector& a, const Vector& b) const override;
  void accumulateWeightedGrad(const std::vector<Vector>& x, const Matrix& w,
                              Vector& grad) const override;

  double lengthscale(std::size_t i) const;

  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<SeArdKernel>(*this);
  }

 private:
  /// Recompute the inverse length scales from log_l_. Only the constructor
  /// and setParams call it, so the cache never goes stale.
  void refreshScales();

  double log_sigma_f_;
  Vector log_l_;
  Vector inv_l_;     // exp(−log l_i), read by eval
  Vector inv_l_sq_;  // exp(−2·log l_i), read by accumulateWeightedGrad
};

/// Nonlinear-fusion kernel of eq. (9) over augmented inputs z = [x; y_l]
/// (the low-fidelity posterior mean appended as the last coordinate):
///
///   k(z, z') = k1(y_l, y_l') · k2(x, x') + k3(x, x')
///
/// k1 is SE over the single y_l coordinate with unit variance (its scale
/// would be redundant with k2's σ_f); k2 and k3 are SE-ARD over x.
///
/// Parameters (log space):
///   [log l_ρ,  log σ_f2, log l2_1..d,  log σ_f3, log l3_1..d]
class NargpKernel final : public Kernel {
 public:
  /// @p x_dim is the dimensionality of the design variables (so inputDim()
  /// is x_dim + 1).
  explicit NargpKernel(std::size_t x_dim);

  std::size_t inputDim() const override { return x_dim_ + 1; }
  std::size_t numParams() const override { return 3 + 2 * x_dim_; }
  Vector params() const override;
  void setParams(const Vector& p) override;
  std::string paramName(std::size_t i) const override;

  double eval(const Vector& a, const Vector& b) const override;
  void accumulateWeightedGrad(const std::vector<Vector>& x, const Matrix& w,
                              Vector& grad) const override;

  std::size_t xDim() const { return x_dim_; }

  // Fast-path accessors for the NARGP Monte-Carlo prediction: the x-parts
  // k2/k3 of the cross-covariances are shared by every MC sample of y_l,
  // so the model computes them once and combines with k1 per sample.

  /// k1(y_a, y_b) — the 1-d SE factor over the y_l coordinate.
  double k1Scalar(double y_a, double y_b) const;
  /// Fill c2[i] = k2(x_star, z_i.x) and c3[i] = k3(x_star, z_i.x) for the
  /// augmented training inputs @p z (x_star has xDim() entries).
  void crossXParts(const std::vector<Vector>& z, const Vector& x_star,
                   Vector& c2, Vector& c3) const;
  /// k(z, z) for any augmented point: σ_f2² + σ_f3².
  double selfVariance() const;

  std::unique_ptr<Kernel> clone() const override {
    return std::make_unique<NargpKernel>(*this);
  }

 private:
  // Split of the composite evaluation used by both eval and the gradient.
  struct Parts {
    double k1, k2, k3;
  };
  Parts evalParts(const Vector& a, const Vector& b) const;
  /// Recompute the inverse length scales from the log parameters; called
  /// only by the constructor and setParams.
  void refreshScales();

  std::size_t x_dim_;
  double log_l_rho_;   // k1 length scale over y_l
  double log_sf2_;     // k2 signal std
  Vector log_l2_;      // k2 length scales over x
  double log_sf3_;     // k3 signal std
  Vector log_l3_;      // k3 length scales over x

  // exp(−log l) and exp(−2·log l) of the length scales above, cached so
  // the evaluation loops call no exp per dimension.
  double inv_l_rho_ = 0.0;
  double inv_l_rho_sq_ = 0.0;
  Vector inv_l2_, inv_l2_sq_;
  Vector inv_l3_, inv_l3_sq_;
};

}  // namespace mfbo::gp
