// mfbo::mf — nonlinear information-fusion surrogate (NARGP).
//
// The paper's multi-fidelity model (§3.1-3.2, following Perdikaris et al.
// 2017):
//   * level 1: plain GP f_l over the design space (SE-ARD kernel),
//   * level 2: GP f_h over the augmented input z = [x; f_l(x)] with the
//     composite kernel of eq. (9).
// High-fidelity training points are augmented with the low-fidelity
// posterior mean µ_l(x); prediction at a new point integrates the
// low-fidelity posterior out by Monte Carlo (eq. 10), using common random
// numbers so that repeated evaluations of the same x are deterministic
// between model updates (which the acquisition optimizer requires). The MC
// samples fan out over the common/parallel.h pool with slot-indexed
// outputs and an ordered accumulation, so predictions are byte-identical
// at any thread count.
#pragma once

#include <memory>

#include "mf/mf_surrogate.h"

namespace mfbo::mf {

struct NargpConfig {
  gp::GpConfig low;           ///< trainer settings for the low-fidelity GP
  gp::GpConfig high;          ///< trainer settings for the high-fidelity GP
  std::size_t n_mc = 100;     ///< Monte-Carlo samples for eq. (10)
  /// MC samples on which the (O(n²)) within-sample posterior variance is
  /// evaluated; the between-sample variance uses all n_mc means. Keeps the
  /// law-of-total-variance estimate while cutting the dominant cost.
  std::size_t n_mc_var = 20;
  std::uint64_t seed = 2024;  ///< seed for the MC common random numbers
};

/// Nonlinear auto-regressive GP (the paper's fusing model).
class NargpModel final : public MfSurrogate {
 public:
  explicit NargpModel(std::size_t x_dim, NargpConfig config = {});

  void fit(std::vector<Vector> x_low, std::vector<double> y_low,
           std::vector<Vector> x_high, std::vector<double> y_high) override;
  void addLow(const Vector& x, double y, bool retrain = true) override;
  void addHigh(const Vector& x, double y, bool retrain = true) override;

  Prediction predictLow(const Vector& x) const override;
  Prediction predictHigh(const Vector& x) const override;

  std::size_t numLow() const override { return low_gp_.size(); }
  std::size_t numHigh() const override { return x_high_.size(); }
  double bestLowObserved() const override { return low_gp_.bestObserved(); }
  double bestHighObserved() const override;
  double lowOutputSd() const override { return low_gp_.outputSd(); }

  std::unique_ptr<MfSurrogate> clone() const override {
    return std::make_unique<NargpModel>(*this);
  }
  std::vector<double> hyperparameters() const override;

  std::size_t xDim() const { return x_dim_; }
  const gp::GpRegressor& highGp() const { return high_gp_; }

 private:
  /// Re-augment the high-fidelity inputs with the current µ_l and retrain
  /// (or just rebuild) the high-fidelity GP, then draw fresh eq. (10) MC
  /// common random numbers. addLow/addHigh with retrain=false skip this
  /// entirely: existing rows keep the augmentation frozen at the last
  /// retrain (LinEasyBO-style), new high rows append incrementally in
  /// O(n²), and the MC draws are reused.
  void rebuildHigh(bool retrain);
  /// Draw a fresh set of common random numbers for the MC integration.
  void refreshMcDraws();

  std::size_t x_dim_;
  NargpConfig config_;
  linalg::Rng rng_;

  gp::GpRegressor low_gp_;
  gp::GpRegressor high_gp_;
  std::vector<Vector> x_high_;   // raw high-fidelity inputs (without y_l)
  std::vector<double> y_high_;
  Vector mc_draws_;  // fixed standard-normal draws, size n_mc
};

}  // namespace mfbo::mf
