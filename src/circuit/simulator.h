// mfbo::circuit — modified-nodal-analysis simulation engine.
//
// Unknowns: the voltages of all non-ground nodes followed by the branch
// currents of voltage sources, inductors and VCVS. Nonlinear devices
// (MOSFET, diode) are handled by Newton iteration with per-step
// voltage-update damping; DC analysis tries plain Newton, then gmin
// stepping, then source stepping. Transient analysis uses fixed-step
// trapezoidal integration (companion models) — adequate for the periodic
// steady-state measurements the testbenches make, and exactly reproducible.
// The Simulator is the only code that knows how a device stamps into the
// MNA system; the AC analysis (circuit/ac.h) reuses its stamps.
#pragma once

#include <vector>

#include "circuit/netlist.h"
#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace mfbo::circuit {

using linalg::Matrix;
using linalg::Vector;

struct DcResult {
  Vector solution;     ///< node voltages then branch currents
  bool converged = false;
  std::size_t iterations = 0;
};

struct TransientResult {
  std::vector<double> time;
  /// solution[k] is the full solution vector at time[k]
  /// (node voltages then branch currents).
  std::vector<Vector> solution;
  bool converged = false;

  /// Voltage of @p node at step @p k (ground reads 0).
  double nodeVoltage(std::size_t k, NodeId node) const {
    return node == kGround ? 0.0
                           : solution[k][static_cast<std::size_t>(node)];
  }
};

struct AcResult;

/// MNA simulation engine bound to one netlist. The netlist must outlive the
/// simulator.
class Simulator {
 public:
  explicit Simulator(const Netlist& netlist);

  /// Size of the MNA system (nodes + branches).
  std::size_t dim() const { return n_nodes_ + n_branches_; }

  const Netlist& netlist() const { return netlist_; }

  /// DC operating point with all sources at their DC values. Solve order:
  /// plain Newton from @p initial_guess (when given) or from zero, then
  /// gmin stepping, then source stepping — the standard SPICE ladder.
  DcResult dcOperatingPoint(const Vector* initial_guess = nullptr);

  /// Fixed-step transient from the DC operating point at t = 0 to
  /// @p t_stop with step @p dt. Records every step (including t = 0).
  TransientResult transient(double t_stop, double dt);

  /// Index of voltage source @p i's branch unknown in a solution vector.
  std::size_t vsourceBranch(std::size_t i) const {
    return vsource_offset_ + i;
  }

  /// Branch current of voltage source @p vsrc_index in a solution vector.
  double vsourceCurrent(const Vector& solution,
                        std::size_t vsrc_index) const;
  /// Branch current of inductor @p ind_index in a solution vector.
  double inductorCurrent(const Vector& solution, std::size_t ind_index) const;
  /// Drain current of MOSFET @p mos_index recomputed from node voltages.
  double mosfetCurrent(const Vector& solution, std::size_t mos_index) const;

  /// Builds the small-signal system from stampLinear and stampNonlinear.
  friend AcResult acAnalysis(Simulator& sim, double f_start, double f_stop,
                             std::size_t points_per_decade);

 private:
  /// Newton solve at time @p t. In transient mode (@p dt > 0) the companion
  /// models use @p prev (previous accepted solution) and the capacitor
  /// companion currents in cap_current_. @p source_scale ramps independent
  /// sources for DC source stepping.
  bool newtonSolve(Vector& x, double t, double dt, const Vector* prev,
                   double source_scale);

  /// Additional node-to-ground conductance applied during gmin stepping.
  double extra_gmin_ = 0.0;
  /// Assemble the linearized MNA system at guess @p x: stampLinear, then
  /// the right-hand side (companion history and source values), then
  /// stampNonlinear.
  void assemble(Matrix& g, Vector& rhs, const Vector& x, double t, double dt,
                const Vector* prev, double source_scale) const;
  /// Add every stamp that does not depend on the state into @p g: gmin
  /// (with the gmin-stepping term), resistors, the branch rows of V, L and
  /// E sources and the E gains, and VCCS. Capacitors and inductors stamp
  /// coefficient·value into @p reactive: 2·value/@p dt in transient
  /// (@p dt > 0, @p reactive is @p g), ω·value in AC (@p reactive is the
  /// susceptance matrix), nothing at DC (@p reactive null).
  void stampLinear(Matrix& g, Matrix* reactive, double dt, double omega) const;
  /// Add the MOSFET gm/gds and diode gd stamps linearized at @p x into
  /// @p g; with @p rhs, also add their Newton Norton currents.
  void stampNonlinear(Matrix& g, Vector* rhs, const Vector& x) const;

  const Netlist& netlist_;
  std::size_t n_nodes_;
  std::size_t n_branches_;       // vsources, inductors, then VCVS
  std::size_t vsource_offset_;   // index of first vsource branch unknown
  std::size_t inductor_offset_;  // index of first inductor branch unknown
  std::size_t vcvs_offset_;      // index of first VCVS branch unknown

  /// Trapezoidal companion state: capacitor currents at the previous step.
  std::vector<double> cap_current_;
};

}  // namespace mfbo::circuit
