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

#include <cstdint>
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
};

/// What a transient analysis recorded: the sample times and, at each of
/// them, the unknowns the caller asked for, in one flat buffer sized up
/// front.
struct TransientResult {
  std::vector<double> time;
  /// Recorded unknowns (indices into the MNA solution: node voltages, then
  /// branch currents) in the order they were asked for.
  std::vector<std::size_t> unknowns;
  /// values[k * unknowns.size() + j] is unknown unknowns[j] at time[k].
  std::vector<double> values;
  bool converged = false;

  /// Unknown @p unknown at step @p k; reading an unknown that was not
  /// recorded is a ContractViolation.
  double value(std::size_t k, std::size_t unknown) const;
  /// Voltage of @p node at step @p k (ground reads 0).
  double nodeVoltage(std::size_t k, NodeId node) const {
    return node == kGround ? 0.0 : value(k, static_cast<std::size_t>(node));
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
  /// @p t_stop with step @p dt. Records the listed @p unknowns (indices
  /// into the solution vector) at every step, t = 0 included; an empty
  /// list records every unknown.
  TransientResult transient(double t_stop, double dt,
                            std::vector<std::size_t> unknowns = {});

  /// Index of voltage source @p i's branch unknown in a solution vector.
  std::size_t vsourceBranch(std::size_t i) const {
    return vsource_offset_ + i;
  }
  /// Index of inductor @p i's branch unknown in a solution vector.
  std::size_t inductorBranch(std::size_t i) const {
    return inductor_offset_ + i;
  }

  /// Branch current of voltage source @p vsrc_index in a solution vector.
  double vsourceCurrent(const Vector& solution,
                        std::size_t vsrc_index) const;
  /// Drain current of MOSFET @p mos_index recomputed from node voltages.
  double mosfetCurrent(const Vector& solution, std::size_t mos_index) const;

  /// Builds the small-signal system from stampLinear and stampNonlinear.
  friend AcResult acAnalysis(Simulator& sim, double f_start, double f_stop,
                             std::size_t points_per_decade);

 private:
  /// What one public analysis call did, added to the innermost span's
  /// counters (circuit.*) once, when the call returns.
  struct Counts {
    std::uint64_t transient_steps = 0;
    std::uint64_t newton_iterations = 0;
    std::uint64_t step_subdivisions = 0;
    std::uint64_t dc_gmin_stepping = 0;
    std::uint64_t dc_source_stepping = 0;
  };

  /// Start a public analysis call: drop the cached linear stamps (the
  /// netlist may have been edited since the last call) and zero the counts.
  void beginAnalysis();
  /// End it: add the non-zero counts, and circuit.nonconverged when the
  /// analysis failed, to the innermost span's counters.
  void endAnalysis(bool converged);

  /// The DC ladder behind dcOperatingPoint (also the transient's t = 0).
  DcResult dcSolve(const Vector* initial_guess);
  /// Newton solve at time @p t. In transient mode (@p dt > 0) the companion
  /// models use @p prev (previous accepted solution) and the capacitor
  /// companion currents in cap_current_. @p source_scale ramps independent
  /// sources for DC source stepping.
  bool newtonSolve(Vector& x, double t, double dt, const Vector* prev,
                   double source_scale);
  /// Advance @p state by one step of @p dt from @p t_from; on Newton
  /// failure, subdivide into 4 substeps, up to 3 levels (64× finer) — the
  /// standard SPICE rescue for sharp nonlinear events.
  bool advance(Vector& state, double t_from, double dt, int depth);

  /// stampLinear(g, transient ? &g : nullptr, dt, 0) into lin_, restamped
  /// only when @p dt or extra_gmin_ differ from the stamps cached in this
  /// analysis call.
  const Matrix& linearStamps(double dt);
  /// rhs_base_ for one Newton solve: the capacitor and inductor companion
  /// history (transient only) and the independent sources at @p t.
  void buildRhsBase(double t, double dt, const Vector* prev,
                    double source_scale);

  /// Additional node-to-ground conductance applied during gmin stepping.
  double extra_gmin_ = 0.0;
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

  // Newton workspace, sized by the constructor and reused by every
  // iteration of every solve, so a transient allocates nothing per step.
  // Each iteration copies lin_ and rhs_base_ into sys_ and rhs_, adds the
  // nonlinear stamps, factors sys_ into lu_ and solves into x_new_.
  Matrix lin_;        ///< linear stamps for (lin_dt_, lin_gmin_)
  double lin_dt_ = 0.0;
  double lin_gmin_ = 0.0;
  bool lin_valid_ = false;
  Vector rhs_base_;
  Matrix sys_;
  Vector rhs_;
  linalg::LuFactor lu_;
  Vector x_new_;
  Vector trial_;      ///< a transient step's candidate state
  Counts counts_;
};

}  // namespace mfbo::circuit
