// mfbo::circuit — small-signal linearization of netlist devices.
//
// Shared by the simulator's nonlinear stamps (simulator.cpp, which also
// serve the AC analysis) and the op-amp testbench's hand analysis: maps a
// MOSFET instance plus terminal voltages to the NMOS-normalized effective
// terminals and the (gm, gds, i) triple of the operating point.
#pragma once

#include "circuit/netlist.h"

namespace mfbo::circuit {

/// Operating-point view of a MOSFET: polarity-normalized, drain/source
/// swapped if reverse-biased, with the small-signal conductances valid for
/// stamps against the *effective* terminals.
struct MosfetSmallSignal {
  NodeId d_eff, s_eff, g;  ///< effective terminals after any swap
  double gm = 0.0;         ///< ∂i/∂v_gs (NMOS-normalized, ≥ 0)
  double gds = 0.0;        ///< ∂i/∂v_ds (≥ 0)
  double i_deff = 0.0;     ///< current into the effective drain
  bool swapped = false;    ///< drain/source were exchanged
};

/// Linearize @p m at terminal voltages (vd, vg, vs).
MosfetSmallSignal mosfetSmallSignal(const Mosfet& m, double vd, double vg,
                                    double vs);

/// Current into @p m's netlist drain terminal at terminal voltages
/// (vd, vg, vs).
double mosfetDrainCurrent(const Mosfet& m, double vd, double vg, double vs);

}  // namespace mfbo::circuit
