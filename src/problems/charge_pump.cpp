#include "problems/charge_pump.h"

#include <algorithm>
#include <cmath>

#include "circuit/measure.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "common/spans.h"

namespace mfbo::problems {

namespace {

using namespace mfbo::circuit;

constexpr double kVddNominal = 1.6;
/// Compliance sweep: the output is clamped at kNumSweep levels spanning
/// [kSweepLo, kSweepHi]·VDD; min/avg/max of the phase current over the
/// sweep are the I_max/I_avg/I_min of eq. (16).
constexpr std::size_t kNumSweep = 9;
constexpr double kSweepLo = 0.06, kSweepHi = 0.94;

/// Device order of the 18 transistors; W_i = x[i], L_i = x[18+i].
enum DeviceIndex : std::size_t {
  kMnB1 = 0,    // NMOS diode master (i10u)
  kMnB2,        // NMOS cascode-bias diode (i5u)
  kMnM2,        // "M2": NMOS mirror slave (measured)
  kMnCas,       // NMOS cascode over M2
  kMnSwDn,      // DN steering switch (to cpout)
  kMnSwDnb,     // DN dump switch
  kMnPb,        // mirror slave feeding the PMOS bias diode
  kMnPbCas,     // cascode in the PMOS-bias branch
  kMnPb2,       // mirror slave feeding the PMOS cascode-bias stack
  kMpB1,        // PMOS diode master
  kMpB2a,       // PMOS cascode-bias stack, upper diode
  kMpB2b,       // PMOS cascode-bias stack, lower diode
  kMpM1,        // "M1": PMOS mirror slave (measured)
  kMpCas,       // PMOS cascode under M1
  kMpSwUp,      // UP steering switch (to cpout)
  kMpSwUpb,     // UP dump switch
  kMpRep,       // always-on replica of the UP switch inside the bias branch
  kMpDumpLoad,  // diode load terminating the PMOS dump branch
  kNumDevices
};

struct CpDeck {
  Netlist netlist;
  std::size_t m1_index = 0, m2_index = 0;
};

/// Which steering phase conducts during the (static) measurement.
enum class Phase { kUp, kDn };

CpDeck buildDeck(const bo::Vector& x, const PvtCorner& corner, Phase phase,
                 double v_out) {
  CpDeck deck;
  Netlist& n = deck.netlist;
  const double vdd_v = kVddNominal * corner.vdd_scale;

  const NodeId vdd = n.node("vdd");
  const NodeId nb1 = n.node("nb1"), nb2 = n.node("nb2");
  const NodeId mx = n.node("mx"), my = n.node("my");
  const NodeId pc1 = n.node("pc1");
  const NodeId pb1 = n.node("pb1"), pb2 = n.node("pb2"),
               pb2a = n.node("pb2a");
  const NodeId px = n.node("px"), py = n.node("py");
  const NodeId cpout = n.node("cpout");
  const NodeId dumpp = n.node("dumpp"), dumpn = n.node("dumpn");
  const NodeId up = n.node("up"), upb = n.node("upb");
  const NodeId dn = n.node("dn"), dnb = n.node("dnb");

  n.addVSource("vdd", vdd, kGround, Waveform::dc(vdd_v));
  // Bias references (the i10u / i5u pins of the paper's Fig. 4). A real
  // reference is a bandgap + resistor and drifts with process and
  // temperature; modelling that drift is what gives the corners teeth.
  const double bias_scale = 1.0 + 0.1 * (corner.kp_scale - 1.0) +
                            1e-4 * (corner.temp_c - 27.0);
  n.addISource("i10u", vdd, nb1, Waveform::dc(10e-6 * bias_scale));
  n.addISource("i5u", vdd, nb2, Waveform::dc(5e-6 * bias_scale));

  // Phase drives: the measured phase conducts statically. PMOS switches
  // are low-active.
  const bool up_on = phase == Phase::kUp;
  const bool dn_on = phase == Phase::kDn;
  n.addVSource("v_up", up, kGround, Waveform::dc(up_on ? vdd_v : 0.0));
  n.addVSource("v_upb", upb, kGround, Waveform::dc(up_on ? 0.0 : vdd_v));
  n.addVSource("v_dn", dn, kGround, Waveform::dc(dn_on ? vdd_v : 0.0));
  n.addVSource("v_dnb", dnb, kGround, Waveform::dc(dn_on ? 0.0 : vdd_v));

  // Output clamp: the loop filter holds cpout at v_out; the compliance
  // sweep moves this level across the usable output range.
  n.addVSource("v_clamp", n.node("vmid"), kGround, Waveform::dc(v_out));
  n.addResistor("r_clamp", n.node("vmid"), cpout, 200.0);
  // Dump-branch terminations.
  n.addResistor("r_dumpn", vdd, dumpn, 5e3);

  // Device construction: level-1 parameters with an L-dependent channel-
  // length-modulation law (λ ∝ 1/L) so gate length genuinely trades off
  // mirror accuracy versus area/compliance.
  auto mos = [&](std::size_t idx, bool pmos) {
    MosfetParams p;
    p.is_pmos = pmos;
    p.vt0 = 0.45;
    p.kp = pmos ? 1.2e-4 : 3.0e-4;
    p.w = x[idx];
    p.l = x[18 + idx];
    p.lambda = (pmos ? 0.20 : 0.15) * (0.1e-6 / p.l);
    return applyCorner(p, corner);
  };

  // NMOS half.
  n.addMosfet("mn_b1", nb1, nb1, kGround, mos(kMnB1, false));
  n.addMosfet("mn_b2", nb2, nb2, kGround, mos(kMnB2, false));
  deck.m2_index =
      n.addMosfet("m2", mx, nb1, kGround, mos(kMnM2, false));
  n.addMosfet("mn_cas", my, nb2, mx, mos(kMnCas, false));
  n.addMosfet("mn_sw_dn", cpout, dn, my, mos(kMnSwDn, false));
  n.addMosfet("mn_sw_dnb", dumpn, dnb, my, mos(kMnSwDnb, false));
  n.addMosfet("mn_pb", pc1, nb1, kGround, mos(kMnPb, false));
  n.addMosfet("mn_pb_cas", pb1, nb2, pc1, mos(kMnPbCas, false));
  n.addMosfet("mn_pb2", pb2, nb1, kGround, mos(kMnPb2, false));

  // PMOS half. The diode-connected master stacks an always-on replica of
  // the steering switch (gate grounded) so the bias branch replicates the
  // output branch's series drop — standard matching practice.
  const NodeId pb1r = n.node("pb1r");
  n.addMosfet("mp_b1", pb1r, pb1, vdd, mos(kMpB1, true));
  n.addMosfet("mp_rep", pb1, kGround, pb1r, mos(kMpRep, true));
  n.addMosfet("mp_b2a", pb2a, pb2a, vdd, mos(kMpB2a, true));
  n.addMosfet("mp_b2b", pb2, pb2, pb2a, mos(kMpB2b, true));
  deck.m1_index = n.addMosfet("m1", px, pb1, vdd, mos(kMpM1, true));
  n.addMosfet("mp_cas", py, pb2, px, mos(kMpCas, true));
  n.addMosfet("mp_sw_up", cpout, upb, py, mos(kMpSwUp, true));
  n.addMosfet("mp_sw_upb", dumpp, up, py, mos(kMpSwUpb, true));
  n.addMosfet("mp_dl", kGround, kGround, dumpp, mos(kMpDumpLoad, true));

  // Parasitic node capacitances: roughly 1 fF per µm of connected gate
  // width plus 2 fF of fixed wiring — these give the pump its switching
  // dynamics (charge injection, settling), which the ripple constraints
  // of eq. (15) measure. Drive and supply nodes are excluded.
  {
    std::vector<double> node_cap(n.numNodes(), 5e-15);
    for (const Mosfet& m : n.mosfets()) {
      const double c_per_terminal = 1.0e-15 * (m.params.w / 1e-6);
      if (m.d != kGround) node_cap[static_cast<std::size_t>(m.d)] +=
          c_per_terminal;
      if (m.s != kGround) node_cap[static_cast<std::size_t>(m.s)] +=
          c_per_terminal;
    }
    for (NodeId internal : {nb1, nb2, mx, my, pc1, pb1, pb1r, pb2, pb2a, px,
                            py, cpout, dumpp, dumpn}) {
      n.addCapacitor("c_" + n.nodeName(internal), internal, kGround,
                     node_cap[static_cast<std::size_t>(internal)]);
    }
  }
  return deck;
}

}  // namespace

ChargePumpProblem::ChargePumpProblem() = default;

bo::Box ChargePumpProblem::bounds() const {
  // Role-aware bounds, as a designer would set them: bias diodes stay
  // small, mirror slaves and cascodes get room to hit 4× ratios, switches
  // are wide and short. Each device still spans at least a factor of 8 in
  // width, so the 36-dimensional search is anything but trivial.
  struct Range {
    double w_lo, w_hi, l_lo, l_hi;  // µm
  };
  static constexpr Range kRanges[18] = {
      {1, 16, 0.2, 1.2},    // mn_b1 (diode master)
      {0.25, 4, 0.3, 2.0},  // mn_b2 (cascode-bias diode: narrow & long)
      {4, 64, 0.2, 1.2},    // m2 (measured mirror slave)
      {8, 80, 0.1, 0.6},    // mn_cas
      {5, 80, 0.1, 0.4},    // mn_sw_dn
      {5, 80, 0.1, 0.4},    // mn_sw_dnb
      {1, 16, 0.2, 1.2},    // mn_pb
      {2, 32, 0.1, 0.6},    // mn_pb_cas
      {0.5, 8, 0.2, 1.2},   // mn_pb2
      {2, 32, 0.2, 1.2},    // mp_b1 (diode master)
      {1, 16, 0.2, 1.2},    // mp_b2a
      {1, 16, 0.2, 1.2},    // mp_b2b
      {8, 80, 0.2, 1.2},    // m1 (measured mirror slave)
      {16, 80, 0.1, 0.6},   // mp_cas
      {10, 80, 0.1, 0.4},   // mp_sw_up
      {10, 80, 0.1, 0.4},   // mp_sw_upb
      {2, 40, 0.1, 0.4},    // mp_rep
      {2, 40, 0.1, 0.6},    // mp_dl
  };
  bo::Vector lo(36), hi(36);
  for (std::size_t i = 0; i < 18; ++i) {
    lo[i] = kRanges[i].w_lo * 1e-6;
    hi[i] = kRanges[i].w_hi * 1e-6;
    lo[18 + i] = kRanges[i].l_lo * 1e-6;
    hi[18 + i] = kRanges[i].l_hi * 1e-6;
  }
  return bo::Box(lo, hi);
}

ChargePumpProblem::CornerCurrents ChargePumpProblem::simulateCorner(
    const bo::Vector& x, const circuit::PvtCorner& corner) const {
  CornerCurrents cc{0, 0, 0, 0, 0, 0, false};
  const double vdd_v = kVddNominal * corner.vdd_scale;

  // Compliance sweep of each phase: clamp the output at several levels and
  // read the delivered current at DC. I(M1): PMOS sources current out of
  // its drain (negate); I(M2): NMOS sinks current into its drain.
  auto sweep = [&](Phase phase, double sign, std::size_t mos_role,
                   double& out_min, double& out_avg, double& out_max) {
    out_min = 1e300;
    out_max = -1e300;
    double acc = 0.0;
    // Build the deck once; only the clamp level changes between sweep
    // points, and the previous solution warm-starts the next solve.
    CpDeck deck = buildDeck(x, corner, phase, kSweepLo * vdd_v);
    Simulator sim(deck.netlist);
    const std::size_t clamp = deck.netlist.vsourceIndex("v_clamp");
    linalg::Vector prev;
    for (std::size_t k = 0; k < kNumSweep; ++k) {
      const double frac =
          kSweepLo + (kSweepHi - kSweepLo) * static_cast<double>(k) /
                         static_cast<double>(kNumSweep - 1);
      deck.netlist.vsources()[clamp].waveform = Waveform::dc(frac * vdd_v);
      const DcResult dc =
          sim.dcOperatingPoint(prev.empty() ? nullptr : &prev);
      if (!dc.converged) return false;
      prev = dc.solution;
      const std::size_t idx =
          mos_role == 0 ? deck.m1_index : deck.m2_index;
      const double i = sign * sim.mosfetCurrent(dc.solution, idx) * 1e6;
      out_min = std::min(out_min, i);
      out_max = std::max(out_max, i);
      acc += i;
    }
    out_avg = acc / static_cast<double>(kNumSweep);
    return true;
  };

  if (!sweep(Phase::kUp, -1.0, 0, cc.im1_min, cc.im1_avg, cc.im1_max))
    return cc;
  if (!sweep(Phase::kDn, +1.0, 1, cc.im2_min, cc.im2_avg, cc.im2_max))
    return cc;
  cc.valid = true;
  return cc;
}

CpPerformance ChargePumpProblem::simulate(const bo::Vector& x,
                                          bo::Fidelity f) const {
  std::vector<circuit::PvtCorner> corners;
  if (f == bo::Fidelity::kHigh) {
    corners = circuit::fullPvtGrid();
  } else {
    corners = {circuit::nominalCorner()};
  }

  CpPerformance perf;
  double dev1 = 0.0, dev2 = 0.0;
  for (const auto& corner : corners) {
    const CornerCurrents cc = simulateCorner(x, corner);
    if (!cc.valid) return perf;  // valid stays false
    perf.max_diff1 = std::max(perf.max_diff1, cc.im1_max - cc.im1_avg);
    perf.max_diff2 = std::max(perf.max_diff2, cc.im1_avg - cc.im1_min);
    perf.max_diff3 = std::max(perf.max_diff3, cc.im2_max - cc.im2_avg);
    perf.max_diff4 = std::max(perf.max_diff4, cc.im2_avg - cc.im2_min);
    dev1 = std::max(dev1, std::abs(cc.im1_avg - kTargetCurrentUa));
    dev2 = std::max(dev2, std::abs(cc.im2_avg - kTargetCurrentUa));
  }
  perf.deviation = dev1 + dev2;
  perf.fom = 0.3 * (perf.max_diff1 + perf.max_diff2 + perf.max_diff3 +
                    perf.max_diff4) +
             0.5 * perf.deviation;
  perf.valid = true;
  return perf;
}

bo::Evaluation ChargePumpProblem::evaluate(const bo::Vector& x,
                                           bo::Fidelity f) {
  const CpPerformance perf = simulate(x, f);
  bo::Evaluation e;
  if (!perf.valid) {
    spans::addCounter(f == bo::Fidelity::kHigh ? "problems.penalized_high"
                                               : "problems.penalized_low");
    e.objective = 1e4;
    e.constraints = {1e3, 1e3, 1e3, 1e3, 1e3};
    return e;
  }
  // eq. (15): minimize FOM s.t. the five window constraints (µA).
  e.objective = perf.fom;
  e.constraints = {perf.max_diff1 - 20.0, perf.max_diff2 - 20.0,
                   perf.max_diff3 - 5.0, perf.max_diff4 - 5.0,
                   perf.deviation - 5.0};
  return e;
}

bo::Vector ChargePumpProblem::referenceDesign() const {
  bo::Vector x(36);
  // Widths (µm → m).
  const double w_um[18] = {4,  0.5, 16, 32, 20, 20, 4,  8,  2,
                           8,  4,  4,  32, 64, 40, 40, 10, 10};
  // Lengths (µm → m): long mirrors, short switches and replica.
  const double l_um[18] = {0.4, 1.0, 0.4, 0.2, 0.1, 0.1, 0.4, 0.2, 0.4,
                           0.4, 0.4, 0.4, 0.4, 0.2, 0.1, 0.1, 0.1, 0.2};
  for (std::size_t i = 0; i < 18; ++i) {
    x[i] = w_um[i] * 1e-6;
    x[18 + i] = l_um[i] * 1e-6;
  }
  return x;
}

}  // namespace mfbo::problems
