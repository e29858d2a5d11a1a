// mfbo::mf — common interface for two-fidelity surrogate models.
//
// The BO engine talks to surrogates through this interface so the nonlinear
// NARGP fusion (the paper's model), the linear AR(1) cokriging baseline
// (eq. 7), and plain single-fidelity GPs are interchangeable in ablations.
#pragma once

#include <memory>
#include <vector>

#include "gp/gp_regressor.h"
#include "linalg/vector.h"

namespace mfbo::mf {

using gp::Prediction;
using linalg::Vector;

/// Two-fidelity regression surrogate.
///
/// Invariant: after fit() (or any add*() call) both predictLow and
/// predictHigh are usable. High-fidelity prediction always fuses whatever
/// low-fidelity information the model maintains.
class MfSurrogate {
 public:
  virtual ~MfSurrogate() = default;

  /// Train from scratch on a low-fidelity set and a high-fidelity set.
  /// Neither set may be empty.
  virtual void fit(std::vector<Vector> x_low, std::vector<double> y_low,
                   std::vector<Vector> x_high, std::vector<double> y_high) = 0;

  /// Append one low-fidelity observation (retraining hyperparameters when
  /// @p retrain is set, otherwise just refreshing posterior caches).
  virtual void addLow(const Vector& x, double y, bool retrain = true) = 0;
  /// Append one high-fidelity observation.
  virtual void addHigh(const Vector& x, double y, bool retrain = true) = 0;

  /// Posterior of the low-fidelity latent function at @p x.
  virtual Prediction predictLow(const Vector& x) const = 0;
  /// Posterior of the (fused) high-fidelity latent function at @p x.
  virtual Prediction predictHigh(const Vector& x) const = 0;

  virtual std::size_t numLow() const = 0;
  virtual std::size_t numHigh() const = 0;

  /// Best (smallest) observed low- and high-fidelity targets — the τ_l and
  /// τ_h incumbents of §3.3/§4.1.
  virtual double bestLowObserved() const = 0;
  virtual double bestHighObserved() const = 0;

  /// Output scale (sd) of the low-fidelity training targets. Dividing
  /// predictLow(x).var by its square puts the uncertainty on the
  /// standardized scale the eq. (11) threshold γ applies to.
  virtual double lowOutputSd() const = 0;

  /// Deep copy. The batch engine clones the fitted surrogate before
  /// feeding it constant-liar fantasy points, so the real model never sees
  /// a lie and serial byte-determinism is preserved.
  virtual std::unique_ptr<MfSurrogate> clone() const = 0;

  /// Flat vector of every trained hyperparameter (internal GPs low-first:
  /// kernel log-params then noise sd; fusion scalars appended), so two
  /// fits can be compared exactly.
  virtual std::vector<double> hyperparameters() const = 0;
};

}  // namespace mfbo::mf
