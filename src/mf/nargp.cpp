#include "mf/nargp.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "common/spans.h"

namespace mfbo::mf {

namespace {

Vector augment(const Vector& x, double y_low) {
  Vector z(x.size() + 1);
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i];
  z[x.size()] = y_low;
  return z;
}

}  // namespace

NargpModel::NargpModel(std::size_t x_dim, NargpConfig config)
    : x_dim_(x_dim),
      config_(config),
      rng_(config.seed),
      low_gp_(std::make_unique<gp::SeArdKernel>(x_dim), config.low),
      high_gp_(std::make_unique<gp::NargpKernel>(x_dim), config.high) {
  MFBO_CHECK(x_dim >= 1, "x_dim must be >= 1");
  MFBO_CHECK(config_.n_mc >= 1, "n_mc must be >= 1");
}

void NargpModel::fit(std::vector<Vector> x_low, std::vector<double> y_low,
                     std::vector<Vector> x_high, std::vector<double> y_high) {
  MFBO_CHECK(!x_low.empty() && !x_high.empty(),
             "both fidelity sets required, got ", x_low.size(), " low / ",
             x_high.size(), " high");
  MFBO_CHECK(x_high.size() == y_high.size(), "high-fidelity size mismatch: ",
             x_high.size(), " inputs vs ", y_high.size(), " targets");
  {
    const spans::ScopedSpan fit_low_span("fit_low");
    low_gp_.fit(std::move(x_low), std::move(y_low));
  }
  x_high_ = std::move(x_high);
  y_high_ = std::move(y_high);
  rebuildHigh(/*retrain=*/true);
}

void NargpModel::addLow(const Vector& x, double y, bool retrain) {
  {
    const spans::ScopedSpan fit_low_span("fit_low");
    low_gp_.addPoint(x, y, retrain);
  }
  if (retrain) {
    // µ_l moved everywhere, so the high-fidelity augmented inputs are
    // refreshed along with the hyperparameters.
    rebuildHigh(/*retrain=*/true);
    return;
  }
  // Non-retrain fast path: the high GP keeps the µ_l augmentation from
  // the last retrain (its training set did not grow), so the whole fused
  // update is the low GP's O(n²) factor extension. predictHigh still
  // integrates over the *updated* low posterior at query time; the µ_l
  // drift in the frozen training augmentation is folded in at the next
  // retrain. The eq. (10) draws are reused so the fused acquisition
  // surface stays fixed between model updates.
  spans::addCounter("mf.nargp.incremental_add_low");
}

void NargpModel::addHigh(const Vector& x, double y, bool retrain) {
  MFBO_CHECK(x.size() == x_dim_, "input dim ", x.size(),
             " does not match x_dim ", x_dim_);
  x_high_.push_back(x);
  y_high_.push_back(y);
  if (retrain || !high_gp_.fitted()) {
    rebuildHigh(/*retrain=*/true);
    return;
  }
  // Non-retrain fast path: existing rows keep their frozen augmentation;
  // only the new row is augmented (with the current µ_l) and appended to
  // the high GP's factor in O(n²). Draws are reused as in addLow.
  spans::addCounter("mf.nargp.incremental_add_high");
  const spans::ScopedSpan fit_high_span("fit_high");
  high_gp_.addPoint(augment(x, low_gp_.predict(x).mean), y,
                    /*retrain=*/false);
}

void NargpModel::rebuildHigh(bool retrain) {
  const spans::ScopedSpan fit_high_span("fit_high");
  std::vector<Vector> z;
  z.reserve(x_high_.size());
  for (const Vector& x : x_high_)
    z.push_back(augment(x, low_gp_.predict(x).mean));
  if (retrain || !high_gp_.fitted()) {
    high_gp_.fit(std::move(z), y_high_);
  } else {
    high_gp_.setData(std::move(z), y_high_);
  }
  refreshMcDraws();
}

void NargpModel::refreshMcDraws() {
  mc_draws_ = rng_.normalVector(config_.n_mc);
}

Prediction NargpModel::predictLow(const Vector& x) const {
  return low_gp_.predict(x);
}

Prediction NargpModel::predictHigh(const Vector& x) const {
  MFBO_CHECK(high_gp_.fitted(), "model is not fitted");
  MFBO_DCHECK(x.size() == x_dim_, "input dim ", x.size(),
              " does not match x_dim ", x_dim_);
  // One span per predictHigh call, opened *outside* the parallel MC region:
  // per-chunk spans would count chunks, which depend on the thread count.
  const spans::ScopedSpan mc_span("mc_integration");
  spans::addCounter("mc_samples", config_.n_mc);
  const Prediction low = low_gp_.predict(x);
  const double low_sd = low.sd();

  // Monte-Carlo integration of eq. (10) with common random numbers:
  // y_l^(i) = µ_l + σ_l·ε_i, pushed through the high-fidelity GP; mean and
  // variance by the law of total variance. Fast path: the k2/k3 x-parts of
  // the composite kernel are identical for every sample, so compute them
  // once; the O(n²) within-sample variance is averaged over the first
  // n_mc_var samples only.
  const auto& kernel =
      static_cast<const gp::NargpKernel&>(high_gp_.kernel());
  const auto& z_train = high_gp_.inputs();
  const std::size_t n = z_train.size();
  const std::size_t yl_index = x_dim_;

  Vector c2, c3;
  kernel.crossXParts(z_train, x, c2, c3);
  const Vector& alpha = high_gp_.alphaVector();
  const auto& chol = high_gp_.posteriorCholesky();
  const auto& std_out = high_gp_.standardizer();
  const double sn2 = high_gp_.noiseSd() * high_gp_.noiseSd();
  const double k_self = kernel.selfVariance();

  const std::size_t n_var = std::min(
      config_.n_mc, std::max<std::size_t>(1, config_.n_mc_var));

  // Each sample pushes a fixed draw through the high-fidelity posterior —
  // independent per index, so samples fan out in chunks over the parallel
  // pool, writing into per-index slots. (The draws themselves are common
  // random numbers fixed at fit time; the parallel body consumes no RNG.)
  Vector sample_mean(config_.n_mc);
  Vector sample_var(n_var);
  parallel::parallelForChunked(
      config_.n_mc, /*grain=*/8, [&](std::size_t lo, std::size_t hi) {
        Vector ks(n);  // per-chunk scratch; serial path pays this once
        for (std::size_t i = lo; i < hi; ++i) {
          const double yl = low.mean + low_sd * mc_draws_[i];
          for (std::size_t t = 0; t < n; ++t)
            ks[t] = kernel.k1Scalar(yl, z_train[t][yl_index]) * c2[t] + c3[t];
          const double mu_z = dot(ks, alpha);
          sample_mean[i] = std_out.unapply(mu_z);
          if (i < n_var) {
            const Vector v = chol.solveLower(ks);
            const double var_z =
                std::max(sn2 + k_self - v.squaredNorm(), 1e-12);
            sample_var[i] = std_out.unapplyVariance(var_z);
          }
        }
      });

  // Ordered accumulation in sample order: every accumulator sums the same
  // values in the same sequence as the serial loop, so the fused posterior
  // is byte-identical at any thread count.
  double mean_acc = 0.0, mean_sq_acc = 0.0, var_acc = 0.0;
  for (std::size_t i = 0; i < config_.n_mc; ++i) {
    mean_acc += sample_mean[i];
    mean_sq_acc += sample_mean[i] * sample_mean[i];
  }
  for (std::size_t i = 0; i < n_var; ++i) var_acc += sample_var[i];
  const double inv_n = 1.0 / static_cast<double>(config_.n_mc);
  const double mean = mean_acc * inv_n;
  const double within = var_acc / static_cast<double>(n_var);  // E[σ²]
  const double between =
      std::max(0.0, mean_sq_acc * inv_n - mean * mean);        // Var[µ]
  return {mean, within + between};
}

double NargpModel::bestHighObserved() const {
  MFBO_CHECK(!y_high_.empty(), "no high-fidelity data");
  return *std::min_element(y_high_.begin(), y_high_.end());
}

std::vector<double> NargpModel::hyperparameters() const {
  std::vector<double> out = low_gp_.hyperparameters();
  const std::vector<double> high = high_gp_.hyperparameters();
  out.insert(out.end(), high.begin(), high.end());
  return out;
}

}  // namespace mfbo::mf
