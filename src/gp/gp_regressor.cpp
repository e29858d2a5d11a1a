#include "gp/gp_regressor.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/check.h"
#include "common/parallel.h"
#include "common/spans.h"

namespace mfbo::gp {

double negLogMarginalLikelihood(const Kernel& kernel, double log_sigma_n,
                                const std::vector<Vector>& x, const Vector& y,
                                Vector* grad) {
  const std::size_t n = x.size();
  MFBO_CHECK(n > 0, "empty data");
  MFBO_CHECK(y.size() == n, "y size ", y.size(), " does not match x size ", n);
  const double sn2 = std::exp(2.0 * log_sigma_n);

  Matrix k = kernel.gram(x);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += sn2;
  const linalg::Cholesky chol = linalg::Cholesky::factorWithJitter(k);
  const Vector alpha = chol.solve(y);

  const double nlml =
      MFBO_CHECK_FINITE(0.5 * dot(y, alpha) + 0.5 * chol.logDet() +
                            0.5 * static_cast<double>(n) *
                                std::log(2.0 * std::numbers::pi),
                        "NLML is non-finite for n=", n);

  if (grad != nullptr) {
    const std::size_t p = kernel.numParams();
    *grad = Vector(p + 1);
    // W = K⁻¹ − ααᵀ; ∂NLML/∂θ = ½ tr(W ∂K/∂θ).
    Matrix w = chol.inverse();
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) w(i, j) -= alpha[i] * alpha[j];

    Vector kgrad(p);
    kernel.accumulateWeightedGrad(x, w, kgrad);
    for (std::size_t i = 0; i < p; ++i) (*grad)[i] = 0.5 * kgrad[i];

    // ∂K/∂log σ_n = 2 σ_n² I  ⇒  gradient is σ_n² tr(W).
    double trace_w = 0.0;
    for (std::size_t i = 0; i < n; ++i) trace_w += w(i, i);
    (*grad)[p] = sn2 * trace_w;
  }
  return nlml;
}

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, GpConfig config)
    : kernel_(std::move(kernel)), config_(config), rng_(config.seed) {
  MFBO_CHECK(kernel_ != nullptr, "null kernel");
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : kernel_(other.kernel_->clone()),
      config_(other.config_),
      rng_(other.rng_),
      x_(other.x_),
      y_raw_(other.y_raw_),
      y_std_(other.y_std_),
      standardizer_(other.standardizer_),
      log_sigma_n_(other.log_sigma_n_),
      chol_(other.chol_ ? std::make_unique<linalg::Cholesky>(*other.chol_)
                        : nullptr),
      alpha_(other.alpha_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this == &other) return *this;
  GpRegressor tmp(other);
  *this = std::move(tmp);
  return *this;
}

void GpRegressor::fit(std::vector<Vector> x, std::vector<double> y) {
  MFBO_CHECK(x.size() == y.size(), "got ", x.size(), " inputs but ", y.size(),
             " targets");
  MFBO_CHECK(!x.empty(), "empty data");
  validateData(x, y);
  x_ = std::move(x);
  y_raw_ = std::move(y);
  train(/*warm_start=*/false);
}

void GpRegressor::setData(std::vector<Vector> x, std::vector<double> y) {
  MFBO_CHECK(x.size() == y.size() && !x.empty(), "bad data: ", x.size(),
             " inputs, ", y.size(), " targets");
  validateData(x, y);
  x_ = std::move(x);
  y_raw_ = std::move(y);
  standardizer_ = config_.standardize ? linalg::Standardizer(y_raw_)
                                      : linalg::Standardizer();
  y_std_ = Vector();  // force rebuildPosterior to restandardize
  rebuildPosterior();
}

void GpRegressor::addPoint(const Vector& x, double y, bool retrain) {
  MFBO_CHECK(x.size() == kernel_->inputDim(), "input dim ", x.size(),
             " does not match kernel dim ", kernel_->inputDim());
  MFBO_CHECK(x.allFinite(), "input has non-finite coordinates");
  MFBO_CHECK_FINITE(y, "non-finite target");
  x_.push_back(x);
  y_raw_.push_back(y);
  if (retrain) {
    train(/*warm_start=*/true);
    return;
  }
  if (config_.incremental && chol_ != nullptr &&
      chol_->dim() + 1 == x_.size() && y_std_.size() + 1 == x_.size() &&
      extendPosterior()) {
    spans::addCounter("gp.addpoint_incremental");
    return;
  }
  if (config_.incremental && chol_ != nullptr)
    spans::addCounter("gp.addpoint_incremental_fallback");
  rebuildPosterior();
}

bool GpRegressor::extendPosterior() {
  const spans::ScopedSpan extend_span("gp_extend");
  // The standardizer is fixed between retrains, so the new target joins
  // y_std_ under the existing transform — exactly as rebuildPosterior
  // restandardizes only newly appended raw values.
  const std::size_t n = chol_->dim();
  const Vector& x_new = x_.back();
  // Full kernel column against x_ (which already contains x_new): entries
  // 0..n-1 are the cross terms, entry n is k(x_new, x_new).
  const Vector col = kernel_->cross(x_, x_new);
  Vector cross(n);
  for (std::size_t i = 0; i < n; ++i) cross[i] = col[i];
  const double sn2 = std::exp(2.0 * log_sigma_n_);
  if (!chol_->appendRow(cross, col[n] + sn2)) return false;
  y_std_.push_back(standardizer_.apply(y_raw_.back()));
  alpha_ = chol_->solve(y_std_);
  return true;
}

void GpRegressor::validateData(const std::vector<Vector>& x,
                               const std::vector<double>& y) const {
  for (std::size_t i = 0; i < x.size(); ++i) {
    MFBO_CHECK(x[i].size() == kernel_->inputDim(), "input ", i, " has dim ",
               x[i].size(), ", kernel expects ", kernel_->inputDim());
    MFBO_CHECK(x[i].allFinite(), "input ", i,
               " has non-finite coordinates");
    MFBO_CHECK(std::isfinite(y[i]), "target ", i, " is non-finite: ", y[i]);
  }
}

void GpRegressor::train(bool warm_start) {
  const spans::ScopedSpan train_span("gp_train");

  // Standardize targets for this training set.
  standardizer_ = config_.standardize ? linalg::Standardizer(y_raw_)
                                      : linalg::Standardizer();
  y_std_ = Vector(y_raw_.size());
  for (std::size_t i = 0; i < y_raw_.size(); ++i)
    y_std_[i] = standardizer_.apply(y_raw_[i]);

  const std::size_t p = kernel_->numParams();

  // Box for the optimizer: generic log-param bounds plus the noise bracket.
  Vector lo(p + 1, config_.min_log_param);
  Vector hi(p + 1, config_.max_log_param);
  lo[p] = std::log(config_.min_noise_sd);
  hi[p] = std::log(config_.max_noise_sd);
  const linalg::Box box(lo, hi);

  // Start list: current params (warm start / constructor defaults) plus
  // random restarts.
  std::vector<Vector> starts;
  {
    Vector start(p + 1);
    const Vector kp = kernel_->params();
    for (std::size_t i = 0; i < p; ++i) start[i] = kp[i];
    start[p] = warm_start ? log_sigma_n_ : std::log(0.1);
    starts.push_back(box.clamp(std::move(start)));
  }
  for (std::size_t r = 0; r < config_.n_restarts; ++r) {
    Vector start(p + 1);
    // Length scales and signal scales drawn around unity (inputs are
    // normalized to [0,1] by the BO layer, outputs standardized here).
    for (std::size_t i = 0; i < p; ++i)
      start[i] = rng_.uniform(std::log(0.05), std::log(2.0));
    start[p] = rng_.uniform(std::log(1e-3), std::log(0.3));
    starts.push_back(box.clamp(std::move(start)));
  }

  // One L-BFGS run per restart on the parallel pool. Kernel::setParams
  // mutates, so every restart optimizes its own kernel clone; the restart
  // start list above was drawn serially from rng_, so the parallel bodies
  // consume no shared RNG stream.
  const std::vector<opt::OptResult> restarts = parallel::parallelMap(
      starts.size(), [&](std::size_t start_index) {
        // One span per restart index (never per chunk), so counts are
        // identical at any thread count.
        const spans::ScopedSpan restart_span("nlml_restart");
        const std::unique_ptr<Kernel> kernel = kernel_->clone();
        opt::GradObjective objective = [&, p](const Vector& theta,
                                              Vector* grad) -> double {
          spans::addCounter("gp.nlml_evals");
          Vector kp(p);
          for (std::size_t i = 0; i < p; ++i) kp[i] = theta[i];
          kernel->setParams(kp);
          try {
            return negLogMarginalLikelihood(*kernel, theta[p], x_, y_std_,
                                            grad);
          } catch (const std::runtime_error&) {
            // Cholesky failure even with max jitter: poison this region.
            spans::addCounter("gp.train.poisoned_not_pd");
            if (grad) *grad = Vector(p + 1, std::nan(""));
            return std::nan("");
          } catch (const ContractViolation&) {
            // Non-finite NLML at an extreme hyperparameter corner (the
            // training data itself was validated at fit time): poison it
            // the same way.
            spans::addCounter("gp.train.poisoned_nonfinite");
            if (grad) *grad = Vector(p + 1, std::nan(""));
            return std::nan("");
          }
        };
        return opt::lbfgsMinimize(objective, starts[start_index], box,
                                  config_.lbfgs);
      });

  // Ordered reduction: strict < keeps the lowest-indexed restart on ties,
  // matching the serial reference at any thread count.
  double best_nlml = std::numeric_limits<double>::max();
  Vector best_theta;
  for (const opt::OptResult& r : restarts) {
    if (std::isfinite(r.value) && r.value < best_nlml) {
      best_nlml = r.value;
      best_theta = r.x;
    }
  }
  if (best_theta.empty()) {
    // Every start failed (numerically hopeless data): keep defaults with a
    // large noise so the model degrades to the prior instead of crashing.
    spans::addCounter("gp.train.fallback_to_prior");
    best_theta = starts.front();
    best_theta[p] = std::log(config_.max_noise_sd);
  }

  Vector kp(p);
  for (std::size_t i = 0; i < p; ++i) kp[i] = best_theta[i];
  kernel_->setParams(kp);
  log_sigma_n_ = best_theta[p];
  rebuildPosterior();
}

void GpRegressor::rebuildPosterior() {
  const spans::ScopedSpan rebuild_span("gp_rebuild");
  // Keep the standardizer fixed between retrains so cached alpha matches;
  // recompute standardized targets for any newly appended raw values.
  if (y_std_.size() != y_raw_.size()) {
    y_std_ = Vector(y_raw_.size());
    for (std::size_t i = 0; i < y_raw_.size(); ++i)
      y_std_[i] = standardizer_.apply(y_raw_[i]);
  }
  const std::size_t n = x_.size();
  Matrix k = kernel_->gram(x_);
  const double sn2 = std::exp(2.0 * log_sigma_n_);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += sn2;
  chol_ = std::make_unique<linalg::Cholesky>(
      linalg::Cholesky::factorWithJitter(k));
  alpha_ = chol_->solve(y_std_);
}

Prediction GpRegressor::predict(const Vector& x) const {
  MFBO_CHECK(fitted(), "model is not fitted");
  MFBO_DCHECK(x.size() == kernel_->inputDim(), "input dim ", x.size(),
              " does not match kernel dim ", kernel_->inputDim());
  Vector ks = kernel_->cross(x_, x);
  const double mu_z = dot(ks, alpha_);
  // σ² = σ_n² + k(x,x) − k*ᵀ (K + σ_n² I)⁻¹ k*   (eq. 4), with
  // v = L⁻¹ k* solved in place over k*.
  chol_->solveLowerInPlace(ks);
  double var_z = std::exp(2.0 * log_sigma_n_) + kernel_->eval(x, x) -
                 ks.squaredNorm();
  var_z = std::max(var_z, 1e-12);
  return {standardizer_.unapply(mu_z), standardizer_.unapplyVariance(var_z)};
}

const linalg::Cholesky& GpRegressor::posteriorCholesky() const {
  MFBO_CHECK(chol_ != nullptr, "model is not fitted");
  return *chol_;
}

double GpRegressor::bestObserved() const {
  MFBO_CHECK(fitted(), "model is not fitted");
  return *std::min_element(y_raw_.begin(), y_raw_.end());
}

std::vector<double> GpRegressor::hyperparameters() const {
  const Vector p = kernel_->params();
  std::vector<double> out;
  out.reserve(p.size() + 1);
  for (std::size_t i = 0; i < p.size(); ++i) out.push_back(p[i]);
  out.push_back(noiseSd());
  return out;
}

}  // namespace mfbo::gp
