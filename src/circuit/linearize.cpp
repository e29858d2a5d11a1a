#include "circuit/linearize.h"

namespace mfbo::circuit {

MosfetSmallSignal mosfetSmallSignal(const Mosfet& m, double vd, double vg,
                                    double vs) {
  MosfetSmallSignal out;
  out.g = m.g;
  const double polarity = m.params.is_pmos ? -1.0 : 1.0;
  const double ud = polarity * vd;
  const double ug = polarity * vg;
  const double us = polarity * vs;

  double vgs, vds;
  if (ud >= us) {
    out.d_eff = m.d;
    out.s_eff = m.s;
    vgs = ug - us;
    vds = ud - us;
    out.swapped = false;
  } else {
    out.d_eff = m.s;
    out.s_eff = m.d;
    vgs = ug - ud;
    vds = us - ud;
    out.swapped = true;
  }
  const MosfetState st = mosfetEval(m.params, vgs, vds);
  out.gm = st.gm;
  out.gds = st.gds;
  out.i_deff = polarity * st.id;
  return out;
}

double mosfetDrainCurrent(const Mosfet& m, double vd, double vg, double vs) {
  const MosfetSmallSignal ss = mosfetSmallSignal(m, vd, vg, vs);
  return ss.swapped ? -ss.i_deff : ss.i_deff;
}

}  // namespace mfbo::circuit
