#include "problems/opamp.h"

#include <cmath>
#include <numbers>

#include "circuit/ac.h"
#include "circuit/linearize.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "common/spans.h"

namespace mfbo::problems {

namespace {

using namespace mfbo::circuit;

constexpr double kVdd = 1.8;
constexpr double kVcm = 0.9;    // input common mode
constexpr double kCl = 2e-12;   // load capacitance

struct OpampDeck {
  Netlist netlist;
  NodeId out = kGround, stage1 = kGround;
  std::size_t vdd_index = 0;
  // Device indices for the hand-analysis fidelity.
  std::size_t m_in_p = 0, m_mirror_out = 0, m_out_n = 0, m_out_p = 0;
};

/// x = [W_tail, W_in, W_mirror, W_out_n, W_out_p, L_in, L_mirror, L_out,
///      C_c, I_bias].
OpampDeck buildDeck(const bo::Vector& x, double diff_drive) {
  OpampDeck deck;
  Netlist& n = deck.netlist;
  const double w_tail = x[0], w_in = x[1], w_mir = x[2], w_on = x[3],
               w_op = x[4];
  const double l_in = x[5], l_mir = x[6], l_out = x[7];
  const double cc = x[8], ibias = x[9];

  const NodeId vdd = n.node("vdd"), pbias = n.node("pbias"),
               tail = n.node("tail"), n1 = n.node("n1"), n2 = n.node("n2"),
               vinp = n.node("vinp"), vinn = n.node("vinn");
  deck.out = n.node("out");
  deck.stage1 = n2;

  deck.vdd_index = n.addVSource("vdd", vdd, kGround, Waveform::dc(kVdd));
  // Differential drive: ±half swing on the two inputs.
  const std::size_t vp =
      n.addVSource("vinp", vinp, kGround, Waveform::dc(kVcm));
  const std::size_t vn =
      n.addVSource("vinn", vinn, kGround, Waveform::dc(kVcm));
  n.vsources()[vp].ac_magnitude = 0.5 * diff_drive;
  n.vsources()[vn].ac_magnitude = 0.5 * diff_drive;
  n.vsources()[vn].ac_phase = std::numbers::pi;

  // Bias branch: diode-connected PMOS mirrors I_bias into the tail and the
  // output stage load.
  n.addISource("ib", pbias, kGround, Waveform::dc(ibias));

  auto pmos = [&](double w, double l) {
    MosfetParams p;
    p.is_pmos = true;
    p.vt0 = 0.45;
    p.kp = 1.2e-4;
    p.w = w;
    p.l = l;
    p.lambda = 0.15 * (0.18e-6 / l);
    return p;
  };
  auto nmos = [&](double w, double l) {
    MosfetParams p;
    p.vt0 = 0.45;
    p.kp = 3.0e-4;
    p.w = w;
    p.l = l;
    p.lambda = 0.12 * (0.18e-6 / l);
    return p;
  };

  n.addMosfet("mp_bias", pbias, pbias, vdd, pmos(0.5 * w_tail, l_out));
  n.addMosfet("mp_tail", tail, pbias, vdd, pmos(w_tail, l_out));

  // PMOS input pair with NMOS mirror load; first-stage output at n2.
  deck.m_in_p = n.addMosfet("mp_in_p", n1, vinp, tail, pmos(w_in, l_in));
  n.addMosfet("mp_in_n", n2, vinn, tail, pmos(w_in, l_in));
  n.addMosfet("mn_mir_d", n1, n1, kGround, nmos(w_mir, l_mir));
  deck.m_mirror_out =
      n.addMosfet("mn_mir_o", n2, n1, kGround, nmos(w_mir, l_mir));

  // Second stage: NMOS common source with PMOS current-source load.
  deck.m_out_n =
      n.addMosfet("mn_out", deck.out, n2, kGround, nmos(w_on, l_out));
  deck.m_out_p =
      n.addMosfet("mp_out", deck.out, pbias, vdd, pmos(w_op, l_out));

  // Miller compensation and load.
  n.addCapacitor("cc", n2, deck.out, cc);
  n.addCapacitor("cl", deck.out, kGround, kCl);
  // Small parasitic at the first-stage output (sets the mirror pole).
  n.addCapacitor("cp1", n2, kGround, 30e-15);
  return deck;
}

}  // namespace

OpampProblem::OpampProblem() = default;

bo::Box OpampProblem::bounds() const {
  //             Wtail  Win    Wmir   Won    Wop    Lin    Lmir   Lout
  bo::Vector lo{2e-6,  2e-6,  1e-6,  2e-6,  4e-6,  0.18e-6, 0.18e-6, 0.18e-6,
                //  Cc      Ibias
                0.2e-12, 5e-6};
  bo::Vector hi{60e-6, 80e-6, 40e-6, 80e-6, 120e-6, 1.0e-6, 1.0e-6, 1.0e-6,
                4e-12, 60e-6};
  return bo::Box(lo, hi);
}

OpampPerformance OpampProblem::simulate(const bo::Vector& x,
                                        bo::Fidelity f) const {
  OpampPerformance perf;
  OpampDeck deck = buildDeck(x, 1.0);
  Simulator sim(deck.netlist);
  const DcResult dc = sim.dcOperatingPoint();
  if (!dc.converged) return perf;

  const Netlist& net = deck.netlist;
  auto nodeV = [&](NodeId id) {
    return id == kGround ? 0.0
                         : dc.solution[static_cast<std::size_t>(id)];
  };
  const double i_supply = -sim.vsourceCurrent(dc.solution, deck.vdd_index);
  perf.power_mw = kVdd * i_supply * 1e3;

  if (f == bo::Fidelity::kLow) {
    // Hand analysis at the operating point: two-stage Miller formulas.
    auto ss = [&](std::size_t idx) {
      const Mosfet& m = net.mosfets()[idx];
      return mosfetSmallSignal(m, nodeV(m.d), nodeV(m.g), nodeV(m.s));
    };
    const MosfetSmallSignal in = ss(deck.m_in_p);
    const MosfetSmallSignal mir = ss(deck.m_mirror_out);
    const MosfetSmallSignal on = ss(deck.m_out_n);
    const MosfetSmallSignal op = ss(deck.m_out_p);
    // A0 = gm1/(gds2+gds4) · gm6/(gds6+gds7); zero/second pole ignored.
    const double a1 = in.gm / std::max(in.gds + mir.gds, 1e-12);
    const double a2 = on.gm / std::max(on.gds + op.gds, 1e-12);
    perf.gain_db = 20.0 * std::log10(std::max(a1 * a2, 1e-12));
    const double cc = x[8];
    perf.ugf_hz = in.gm / (2.0 * std::numbers::pi * std::max(cc, 1e-15));
    // Phase margin from the dominant-pole + second-pole textbook model.
    const double p2 = on.gm / (2.0 * std::numbers::pi * kCl);
    perf.pm_deg = 90.0 - std::atan(perf.ugf_hz / std::max(p2, 1.0)) *
                             180.0 / std::numbers::pi;
    perf.valid = true;
    return perf;
  }

  // High fidelity: full AC sweep (includes the Miller RHP zero, the mirror
  // pole, and every loading effect the hand formulas ignore).
  const AcResult ac = acAnalysis(sim, 1e2, 1e10, 8);
  if (!ac.converged) return perf;
  perf.gain_db = ac.magnitudeDb(0, deck.out);
  perf.ugf_hz = unityGainFrequency(ac, deck.out);
  // The two-stage path is inverting end to end for this drive polarity.
  perf.pm_deg = phaseMarginDeg(ac, deck.out, /*invert=*/true);
  perf.valid = true;
  return perf;
}

bo::Evaluation OpampProblem::evaluate(const bo::Vector& x, bo::Fidelity f) {
  const OpampPerformance perf = simulate(x, f);
  bo::Evaluation e;
  if (!perf.valid) {
    spans::addCounter(f == bo::Fidelity::kHigh ? "problems.penalized_high"
                                               : "problems.penalized_low");
    e.objective = 100.0;
    e.constraints = {100.0, 100.0, 100.0};
    return e;
  }
  e.objective = -perf.gain_db;  // maximize gain
  e.constraints = {kMinUgfMhz - perf.ugf_hz / 1e6,   // UGF > 20 MHz
                   kMinPmDeg - perf.pm_deg,          // PM > 60°
                   perf.power_mw - kMaxPowerMw};     // power < 1 mW
  return e;
}

bo::Vector OpampProblem::referenceDesign() const {
  //        Wtail  Win    Wmir   Won    Wop    Lin      Lmir     Lout
  return bo::Vector{16e-6, 24e-6, 8e-6,  32e-6, 48e-6, 0.4e-6, 0.4e-6,
                    0.36e-6,
                    //  Cc     Ibias
                    1.0e-12, 20e-6};
}

}  // namespace mfbo::problems
