// Bring your own circuit: wrap a custom MNA netlist as an optimization
// problem with LambdaProblem.
//
// The example sizes a two-stage resistively-loaded NMOS amplifier: pick
// the two drain resistors and the two device widths so that the DC gain is
// maximized while the output bias sits near mid-rail and the total supply
// current stays under 2 mA. Low fidelity = small-signal gain from a cheap
// two-point DC difference; high fidelity = a transient sine test measuring
// the actual fundamental gain (and distortion-aware, since clipping
// reduces it).
//
// Usage: ./custom_circuit [--verbose] [budget]
//   --verbose — print one progress line per BO iteration to stderr
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bo/mfbo.h"
#include "circuit/measure.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;
using namespace mfbo::circuit;

constexpr double kVdd = 3.0;
constexpr double kF0 = 1e6;     // test tone
constexpr double kAmpl = 2e-3;  // 2 mV input tone

struct AmpDeck {
  Netlist netlist;
  NodeId out = kGround;
  std::size_t vdd_index = 0;
};

/// x = [Rd1 (Ω), Rd2 (Ω), W1 (m), W2 (m)].
AmpDeck buildAmplifier(const bo::Vector& x, double input_ampl) {
  AmpDeck deck;
  Netlist& n = deck.netlist;
  const NodeId vdd = n.node("vdd"), in = n.node("in"), d1 = n.node("d1"),
               g2 = n.node("g2");
  deck.out = n.node("out");

  deck.vdd_index = n.addVSource("vdd", vdd, kGround, Waveform::dc(kVdd));
  n.addVSource("vin", in, kGround, Waveform::sine(0.75, input_ampl, kF0));

  MosfetParams m;
  m.vt0 = 0.6;
  m.kp = 1e-4;
  m.lambda = 0.02;
  m.l = 1e-6;

  m.w = x[2];
  n.addMosfet("m1", d1, in, kGround, m);
  n.addResistor("rd1", vdd, d1, x[0]);
  // AC-coupled second stage with its own bias divider.
  n.addCapacitor("cc", d1, g2, 10e-9);
  n.addResistor("rb1", vdd, g2, 300e3);
  n.addResistor("rb2", g2, kGround, 100e3);
  m.w = x[3];
  n.addMosfet("m2", deck.out, g2, kGround, m);
  n.addResistor("rd2", vdd, deck.out, x[1]);
  return deck;
}

bo::Evaluation evaluateAmplifier(const bo::Vector& x, bo::Fidelity fidelity) {
  bo::Evaluation e;
  if (fidelity == bo::Fidelity::kLow) {
    // Cheap estimate: product of per-stage small-signal gains from two DC
    // solves — ignores coupling, bias shift under drive, and clipping.
    AmpDeck deck = buildAmplifier(x, 0.0);
    Simulator sim(deck.netlist);
    const DcResult dc = sim.dcOperatingPoint();
    if (!dc.converged) {
      e.objective = 100.0;
      e.constraints = {10.0, 10.0};
      return e;
    }
    const double id1 = sim.mosfetCurrent(dc.solution, 0);
    const double id2 = sim.mosfetCurrent(dc.solution, 1);
    const double gm1 = std::sqrt(2.0 * 1e-4 * (x[2] / 1e-6) *
                                 std::max(id1, 1e-9));
    const double gm2 = std::sqrt(2.0 * 1e-4 * (x[3] / 1e-6) *
                                 std::max(id2, 1e-9));
    const double gain = gm1 * x[0] * gm2 * x[1];
    const double v_out = dc.solution[static_cast<std::size_t>(deck.out)];
    const double i_supply = -sim.vsourceCurrent(dc.solution, deck.vdd_index);
    e.objective = -20.0 * std::log10(std::max(gain, 1e-6));
    e.constraints = {std::abs(v_out - kVdd / 2.0) - 0.6,  // bias window
                     (i_supply - 2e-3) * 1e3};            // ≤ 2 mA
    return e;
  }

  // High fidelity: measure the fundamental gain with a transient tone.
  AmpDeck deck = buildAmplifier(x, kAmpl);
  Simulator sim(deck.netlist);
  const TransientResult tr = sim.transient(20.0 / kF0, 1.0 / (200.0 * kF0));
  if (!tr.converged) {
    e.objective = 100.0;
    e.constraints = {10.0, 10.0};
    return e;
  }
  const auto h = nodeHarmonics(tr, deck.out, kF0, 3, 10.0 / kF0);
  const double gain = h[1].magnitude / kAmpl;
  const double v_out_dc = h[0].magnitude;
  const double i_supply =
      -tr.value(tr.time.size() - 1, sim.vsourceBranch(deck.vdd_index));
  e.objective = -20.0 * std::log10(std::max(gain, 1e-6));
  e.constraints = {std::abs(v_out_dc - kVdd / 2.0) - 0.6,
                   (i_supply - 2e-3) * 1e3};
  return e;
}

}  // namespace

int main(int argc, char** argv) {
  bool verbose = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verbose") == 0)
      verbose = true;
    else
      pos.push_back(argv[i]);
  }
  const double budget = !pos.empty() ? std::atof(pos[0]) : 30.0;

  problems::LambdaProblem problem(
      "two-stage-amplifier",
      bo::Box(bo::Vector{2e3, 2e3, 5e-6, 5e-6},
              bo::Vector{50e3, 50e3, 200e-6, 200e-6}),
      /*num_constraints=*/2, /*cost_ratio=*/15.0, evaluateAmplifier);

  bo::MfboOptions options;
  options.n_init_low = 16;
  options.n_init_high = 5;
  options.budget = budget;
  if (verbose) options.observer = bo::stderrProgressObserver();

  std::printf("sizing two-stage amplifier (budget %.0f)...\n", budget);
  const bo::SynthesisResult r =
      bo::MfboSynthesizer(options).run(problem, 7);

  std::printf("\n=== best design ===\n");
  std::printf("Rd1 = %.1f kΩ, Rd2 = %.1f kΩ, W1 = %.1f µm, W2 = %.1f µm\n",
              r.best_x[0] / 1e3, r.best_x[1] / 1e3, r.best_x[2] * 1e6,
              r.best_x[3] * 1e6);
  std::printf("gain = %.2f dB (feasible: %s)\n", -r.best_eval.objective,
              r.feasible_found ? "yes" : "no");
  std::printf("cost: %zu low + %zu high = %.1f equivalent sims\n", r.n_low,
              r.n_high, r.equivalent_high_sims);
  return 0;
}
