#include "problems/power_amplifier.h"

#include <cmath>

#include "circuit/measure.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "common/spans.h"

namespace mfbo::problems {

namespace {

using namespace mfbo::circuit;

constexpr double kF0 = PowerAmplifierProblem::kFrequencyHz;
constexpr double kPeriod = 1.0 / kF0;
constexpr double kRLoad = 50.0;
constexpr double kDriveAmplitude = 0.6;  // V, gate drive
constexpr double kStepsPerPeriod = 64.0;

/// Build the behavioural class-AB PA deck for one design point.
struct PaDeck {
  Netlist netlist;
  NodeId out = kGround;
  std::size_t vdd_index = 0;
};

PaDeck buildDeck(double cs, double cp, double w, double vdd, double vb) {
  PaDeck deck;
  Netlist& n = deck.netlist;
  const NodeId nvdd = n.node("vdd");
  const NodeId gate = n.node("gate");
  const NodeId drain = n.node("drain");
  const NodeId match = n.node("match");
  deck.out = n.node("out");

  deck.vdd_index =
      n.addVSource("vdd", nvdd, kGround, Waveform::dc(vdd));
  n.addVSource("vin", gate, kGround,
               Waveform::sine(vb, kDriveAmplitude, kF0));

  // The 2048-cell array behaves as one wide device; 65 nm-ish level-1
  // parameters.
  MosfetParams mos;
  mos.vt0 = 0.45;
  mos.kp = 2.5e-4;
  mos.lambda = 0.08;
  mos.w = w;
  mos.l = 0.1e-6;
  n.addMosfet("m_pa", drain, gate, kGround, mos);

  // RF choke to the supply and the Cs/Cp L-match into the 50 Ω load. The
  // small series inductor completes the harmonic filter.
  n.addInductor("l_rfc", nvdd, drain, 4e-9);
  n.addCapacitor("c_s", drain, match, cs);
  n.addInductor("l_m", match, deck.out, 1.5e-9);
  n.addCapacitor("c_p", deck.out, kGround, cp);
  n.addResistor("r_load", deck.out, kGround, kRLoad);
  return deck;
}

}  // namespace

PowerAmplifierProblem::PowerAmplifierProblem() = default;

bo::Box PowerAmplifierProblem::bounds() const {
  //            Cs      Cp      W       Vdd   Vb
  return bo::Box(
      bo::Vector{0.2e-12, 0.2e-12, 0.5e-3, 1.0, 0.3},
      bo::Vector{8.0e-12, 8.0e-12, 6.0e-3, 2.0, 0.9});
}

PaPerformance PowerAmplifierProblem::simulate(const bo::Vector& x,
                                              bo::Fidelity f) const {
  const double cs = x[0], cp = x[1], w = x[2], vdd = x[3], vb = x[4];
  PaDeck deck = buildDeck(cs, cp, w, vdd, vb);
  Simulator sim(deck.netlist);

  // Paper fidelities: 10 ns vs 200 ns of simulated time (24 vs 480 carrier
  // periods at 2.4 GHz). The low-fidelity measurement window starts right
  // after a couple of periods — start-up bias included, which is exactly
  // the systematic error a short simulation makes.
  // The low fidelity is also run with a 2× coarser time step — the second
  // systematic error source a cheap simulation has.
  const bool high = f == bo::Fidelity::kHigh;
  const double n_periods = high ? 480.0 : 24.0;
  const double t_stop = n_periods * kPeriod;
  const double dt = kPeriod / (high ? kStepsPerPeriod : 0.5 * kStepsPerPeriod);
  const double t_measure = high ? 0.5 * t_stop : 2.0 * kPeriod;

  // Record only what the measurements read: the output node for the
  // harmonics, and the supply's node and branch current for its power.
  const NodeId nvdd = deck.netlist.vsources()[deck.vdd_index].np;
  const TransientResult tr = sim.transient(
      t_stop, dt,
      {static_cast<std::size_t>(deck.out), static_cast<std::size_t>(nvdd),
       sim.vsourceBranch(deck.vdd_index)});
  PaPerformance perf;
  if (!tr.converged) return perf;  // valid stays false

  const auto harmonics = nodeHarmonics(tr, deck.out, kF0, 5, t_measure);
  const double v1 = harmonics[1].magnitude;
  const double pout = v1 * v1 / (2.0 * kRLoad);
  const double pdc = averageSourcePower(sim, tr, deck.vdd_index, t_measure);

  perf.pout_dbm = 10.0 * std::log10(std::max(pout, 1e-12) / 1e-3);
  perf.eff = pdc > 1e-9 ? 100.0 * pout / pdc : 0.0;
  // The paper reports thd on a positive-dB scale (their Table 1 values sit
  // in 7-14 "dB" with a 13.65 limit). We use 20·log10(THD ratio) + 20 so a
  // 22% THD reads ~7 dB and a 48% THD reads ~13.6 dB — same geometry,
  // same spec constant.
  const double thd_ratio = totalHarmonicDistortion(harmonics);
  perf.thd_db = 20.0 * std::log10(std::max(thd_ratio, 1e-6)) + 20.0;
  perf.valid = true;
  return perf;
}

bo::Evaluation PowerAmplifierProblem::evaluate(const bo::Vector& x,
                                               bo::Fidelity f) {
  const PaPerformance perf = simulate(x, f);
  bo::Evaluation e;
  if (!perf.valid) {
    // Non-convergence: heavily penalized but finite and smooth-ish.
    spans::addCounter(f == bo::Fidelity::kHigh ? "problems.penalized_high"
                                               : "problems.penalized_low");
    e.objective = 100.0;
    e.constraints = {50.0, 50.0};
    return e;
  }
  // Maximize Eff ⇒ minimize −Eff; constraints in canonical c < 0 form.
  e.objective = -perf.eff;
  e.constraints = {kPoutSpecDbm - perf.pout_dbm,   // Pout > 23 dBm
                   perf.thd_db - kThdSpecDb};      // thd < 13.65 dB
  return e;
}

}  // namespace mfbo::problems
