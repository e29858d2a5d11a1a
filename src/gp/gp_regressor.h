// mfbo::gp — exact Gaussian-process regression (paper §2.3).
//
// Zero-mean GP with a pluggable kernel, trained by minimizing the exact
// negative log marginal likelihood (eq. 3) with analytic gradients and
// multi-restart L-BFGS. Outputs are z-score standardized internally;
// predictions (eq. 4) are returned in original units and include the
// learned observation noise, as the paper's eq. (4) does.
#pragma once

#include <memory>
#include <vector>

#include "gp/kernel.h"
#include "linalg/cholesky.h"
#include "linalg/rng.h"
#include "linalg/stats.h"
#include "opt/lbfgs.h"

namespace mfbo::gp {

/// Posterior prediction at a single point.
struct Prediction {
  double mean = 0.0;
  double var = 0.0;
  double sd() const { return var > 0.0 ? std::sqrt(var) : 0.0; }
};

struct GpConfig {
  std::size_t n_restarts = 2;   ///< random restarts beyond the default start
  opt::LbfgsOptions lbfgs{.max_iterations = 60};
  double min_noise_sd = 1e-4;   ///< noise floor (standardized units)
  double max_noise_sd = 1.0;
  double min_log_param = -7.0;  ///< box for kernel log-params during training
  double max_log_param = 7.0;
  bool standardize = true;      ///< z-score outputs before fitting
  std::uint64_t seed = 1234;    ///< seed for restart sampling
  /// O(n²) posterior refresh for addPoint(retrain=false): extend the
  /// cached Cholesky factor by one row instead of refactoring the full
  /// Gram matrix. Equivalent to the full rebuild up to roundoff (the
  /// incremental-vs-rebuild property tests pin ≤1e-8); disable to force
  /// the O(n³) reference path (used by those tests and the micro bench).
  bool incremental = true;
};

/// Exact NLML (eq. 3) for standardized observations, and optionally its
/// gradient with respect to [kernel log-params..., log σ_n]. Exposed as a
/// free function so tests can check gradients against finite differences.
double negLogMarginalLikelihood(const Kernel& kernel, double log_sigma_n,
                                const std::vector<Vector>& x,
                                const Vector& y, Vector* grad = nullptr);

/// Exact GP regressor.
///
/// Invariants: after fit()/addPoint(), the cached Cholesky factor and alpha
/// vector are consistent with the stored training data and hyperparameters.
class GpRegressor {
 public:
  GpRegressor(std::unique_ptr<Kernel> kernel, GpConfig config = {});

  GpRegressor(const GpRegressor& other);
  GpRegressor& operator=(const GpRegressor& other);
  GpRegressor(GpRegressor&&) = default;
  GpRegressor& operator=(GpRegressor&&) = default;

  /// Replace the training set and retrain hyperparameters from scratch.
  void fit(std::vector<Vector> x, std::vector<double> y);

  /// Replace the training set but keep the current hyperparameters, only
  /// rebuilding the standardizer and posterior caches. Cheap path for
  /// models whose inputs shift slightly every iteration (NARGP re-augments
  /// its high-fidelity inputs whenever the low-fidelity posterior moves).
  void setData(std::vector<Vector> x, std::vector<double> y);

  /// Append one observation. When @p retrain is true the hyperparameters
  /// are re-optimized (warm-started from the current values); otherwise
  /// the cached posterior is refreshed — in O(n²) via an incremental
  /// Cholesky row append when config.incremental is set (falling back to
  /// a full refactorization if the extension is not positive definite),
  /// else by the O(n³) full rebuild. The output standardizer stays fixed
  /// between retrains in either case.
  void addPoint(const Vector& x, double y, bool retrain = true);

  /// Posterior mean and variance at @p x (original units, eq. 4).
  Prediction predict(const Vector& x) const;

  std::size_t size() const { return x_.size(); }
  std::size_t inputDim() const { return kernel_->inputDim(); }
  const Kernel& kernel() const { return *kernel_; }
  double noiseSd() const { return std::exp(log_sigma_n_); }
  /// Output scale (standardizer sd). Dividing a predictive variance by
  /// outputSd()² expresses it in standardized units — the scale on which
  /// the paper's fidelity-selection threshold γ = 0.01 is meaningful.
  double outputSd() const { return standardizer_.sd(); }
  const std::vector<Vector>& inputs() const { return x_; }
  const std::vector<double>& targets() const { return y_raw_; }
  bool fitted() const { return !x_.empty(); }

  /// Smallest observed target (τ in the acquisition functions).
  double bestObserved() const;

  /// Flat hyperparameter vector: kernel log-params followed by the noise
  /// sd, so two fits can be compared exactly.
  std::vector<double> hyperparameters() const;

  // Power-user access for models that build custom batched prediction
  // paths on top of the cached posterior (NARGP's MC integration):

  /// Cached Cholesky of K + σ_n²I. Requires fitted().
  const linalg::Cholesky& posteriorCholesky() const;
  /// Cached α = (K + σ_n²I)⁻¹ y (standardized targets).
  const Vector& alphaVector() const { return alpha_; }
  /// Output standardizer used on targets.
  const linalg::Standardizer& standardizer() const { return standardizer_; }

 private:
  /// MFBO_CHECK that every input matches the kernel dimension and that all
  /// inputs and targets are finite (preconditions for fit/setData).
  void validateData(const std::vector<Vector>& x,
                    const std::vector<double>& y) const;
  /// Multi-restart hyperparameter optimization on the current data.
  void train(bool warm_start);
  /// Rebuild standardizer, Gram Cholesky and alpha for current params.
  void rebuildPosterior();
  /// O(n²) posterior refresh after x_/y_raw_ gained one point: extend the
  /// cached factor with the new kernel column and re-solve alpha. Returns
  /// false (leaving caches untouched beyond the factor attempt) when no
  /// consistent extension exists and a full rebuild is required.
  bool extendPosterior();

  std::unique_ptr<Kernel> kernel_;
  GpConfig config_;
  linalg::Rng rng_;

  std::vector<Vector> x_;
  std::vector<double> y_raw_;
  Vector y_std_;  // standardized targets
  linalg::Standardizer standardizer_;
  double log_sigma_n_ = std::log(0.1);

  std::unique_ptr<linalg::Cholesky> chol_;
  Vector alpha_;  // K⁻¹ y (standardized)
};

}  // namespace mfbo::gp
