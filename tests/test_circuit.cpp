// Tests for the MNA circuit simulator, checked against closed-form circuit
// theory: dividers, diode drops, MOSFET operating regions, RC/RL dynamics,
// sinusoidal steady state, spectral analysis, and PVT corner behaviour;
// then DC, transient, AC and testbench results pinned bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numbers>
#include <string>

#include "circuit/ac.h"
#include "circuit/fft.h"
#include "circuit/measure.h"
#include "circuit/netlist.h"
#include "circuit/parser.h"
#include "circuit/pvt.h"
#include "circuit/simulator.h"
#include "common/check.h"
#include "common/json.h"
#include "common/memstats.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "problems/charge_pump.h"
#include "problems/opamp.h"
#include "problems/power_amplifier.h"

namespace {

using namespace mfbo::circuit;

// ---------------------------------------------------------------- Waveform --

TEST(WaveformTest, DcIsConstant) {
  const Waveform w = Waveform::dc(3.3);
  EXPECT_DOUBLE_EQ(w.at(0.0), 3.3);
  EXPECT_DOUBLE_EQ(w.at(1e-3), 3.3);
  EXPECT_DOUBLE_EQ(w.dcValue(), 3.3);
}

TEST(WaveformTest, SineValues) {
  const Waveform w = Waveform::sine(1.0, 2.0, 1e3);
  EXPECT_NEAR(w.at(0.0), 1.0, 1e-12);
  EXPECT_NEAR(w.at(0.25e-3), 3.0, 1e-9);   // peak
  EXPECT_NEAR(w.at(0.75e-3), -1.0, 1e-9);  // trough
  EXPECT_DOUBLE_EQ(w.dcValue(), 1.0);
}

TEST(WaveformTest, PulseShapeAndPeriodicity) {
  // v1=0, v2=1, delay=1µs, rise=1µs, fall=1µs, width=2µs, period=10µs.
  const Waveform w = Waveform::pulse(0.0, 1.0, 1e-6, 1e-6, 1e-6, 2e-6, 10e-6);
  EXPECT_DOUBLE_EQ(w.at(0.0), 0.0);
  EXPECT_NEAR(w.at(1.5e-6), 0.5, 1e-9);   // mid-rise
  EXPECT_DOUBLE_EQ(w.at(3e-6), 1.0);      // flat top
  EXPECT_NEAR(w.at(4.5e-6), 0.5, 1e-9);   // mid-fall
  EXPECT_DOUBLE_EQ(w.at(6e-6), 0.0);      // low
  EXPECT_NEAR(w.at(11.5e-6), 0.5, 1e-9);  // second period mid-rise
}

// ----------------------------------------------------------------- devices --

TEST(MosfetModel, CutoffTriodeSaturationRegions) {
  MosfetParams p;
  p.vt0 = 0.5;
  p.kp = 2e-4;
  p.lambda = 0.0;
  p.w = 10e-6;
  p.l = 1e-6;
  const double beta = p.kp * p.w / p.l;  // 2e-3

  // Cutoff: vgs < vt.
  const MosfetState off = mosfetEval(p, 0.3, 1.0);
  EXPECT_LT(off.id, 1e-9);

  // Saturation: vds > vov. id = β/2·vov².
  const MosfetState sat = mosfetEval(p, 1.0, 2.0);
  EXPECT_NEAR(sat.id, 0.5 * beta * 0.25, 1e-9);
  EXPECT_NEAR(sat.gm, beta * 0.5, 1e-9);

  // Triode: id = β(vov·vds − vds²/2).
  const MosfetState tri = mosfetEval(p, 1.0, 0.2);
  EXPECT_NEAR(tri.id, beta * (0.5 * 0.2 - 0.5 * 0.04), 1e-9);
  // Triode current is below saturation current.
  EXPECT_LT(tri.id, sat.id);
}

TEST(MosfetModel, ChannelLengthModulationSlope) {
  MosfetParams p;
  p.lambda = 0.1;
  const MosfetState a = mosfetEval(p, 1.0, 1.0);
  const MosfetState b = mosfetEval(p, 1.0, 2.0);
  EXPECT_GT(b.id, a.id);  // finite output conductance
  EXPECT_GT(a.gds, 0.0);
}

TEST(MosfetModel, ContinuousAcrossTriodeSaturationBoundary) {
  MosfetParams p;
  const double vov = 1.0 - p.vt0;
  const MosfetState below = mosfetEval(p, 1.0, vov - 1e-9);
  const MosfetState above = mosfetEval(p, 1.0, vov + 1e-9);
  EXPECT_NEAR(below.id, above.id, 1e-9);
}

TEST(DiodeModel, ForwardExponentialAndReverseSaturation) {
  DiodeParams p;
  const DiodeState fwd = diodeEval(p, 0.6);
  // id ≈ Is·e^(0.6/0.02585) ≈ 1e-14·1.2e10 ≈ 1.2e-4.
  EXPECT_GT(fwd.id, 1e-5);
  EXPECT_LT(fwd.id, 1e-2);
  const DiodeState rev = diodeEval(p, -5.0);
  EXPECT_LT(rev.id, 0.0);
  EXPECT_GT(rev.id, -1e-9);
}

TEST(DiodeModel, LimitedExponentialStaysFinite) {
  DiodeParams p;
  const DiodeState s = diodeEval(p, 5.0);  // would overflow unlimited exp
  EXPECT_TRUE(std::isfinite(s.id));
  EXPECT_TRUE(std::isfinite(s.gd));
  EXPECT_GT(s.gd, 0.0);
}

// ---------------------------------------------------------------- netlist --

TEST(NetlistTest, NodeCreationAndGroundAliases) {
  Netlist n;
  EXPECT_EQ(n.node("0"), kGround);
  EXPECT_EQ(n.node("gnd"), kGround);
  const NodeId a = n.node("a");
  EXPECT_EQ(n.node("a"), a);  // idempotent
  EXPECT_NE(n.node("b"), a);
  EXPECT_EQ(n.numNodes(), 2u);
  EXPECT_EQ(n.nodeName(a), "a");
}

TEST(NetlistTest, RejectsBadComponents) {
  Netlist n;
  const NodeId a = n.node("a");
  EXPECT_THROW(n.addResistor("r", a, kGround, 0.0), std::invalid_argument);
  EXPECT_THROW(n.addCapacitor("c", a, kGround, -1e-12),
               std::invalid_argument);
  EXPECT_THROW(n.addResistor("r", 42, kGround, 1e3), std::invalid_argument);
}

TEST(NetlistTest, RejectsNonFiniteValuesAndBadDiodes) {
  Netlist n;
  const NodeId a = n.node("a");
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(n.addResistor("r", a, kGround, inf), std::invalid_argument);
  EXPECT_THROW(n.addCapacitor("c", a, kGround, inf), std::invalid_argument);
  EXPECT_THROW(n.addInductor("l", a, kGround, nan), std::invalid_argument);
  EXPECT_THROW(n.addVcvs("e", a, kGround, a, kGround, nan),
               std::invalid_argument);
  EXPECT_THROW(n.addVccs("g", a, kGround, a, kGround, inf),
               std::invalid_argument);
  MosfetParams wide;
  wide.w = inf;
  EXPECT_THROW(n.addMosfet("m", a, a, kGround, wide), std::invalid_argument);
  DiodeParams leaky;
  leaky.is = -1.0;
  EXPECT_THROW(n.addDiode("d", a, kGround, leaky), std::invalid_argument);
  DiodeParams ideal;
  ideal.n = 0.0;
  EXPECT_THROW(n.addDiode("d", a, kGround, ideal), std::invalid_argument);
  EXPECT_TRUE(n.resistors().empty());
  EXPECT_TRUE(n.mosfets().empty());
  EXPECT_TRUE(n.diodes().empty());
}

TEST(NetlistTest, NamedLookups) {
  Netlist n;
  const NodeId a = n.node("a");
  n.addVSource("vdd", a, kGround, Waveform::dc(1.0));
  n.addMosfet("m1", a, a, kGround, MosfetParams{});
  EXPECT_EQ(n.vsourceIndex("vdd"), 0u);
  EXPECT_EQ(n.mosfetIndex("m1"), 0u);
  EXPECT_THROW(n.vsourceIndex("nope"), std::invalid_argument);
}

// --------------------------------------------------------------------- DC --

TEST(DcAnalysis, VoltageDivider) {
  Netlist n;
  const NodeId vin = n.node("in"), mid = n.node("mid");
  n.addVSource("v1", vin, kGround, Waveform::dc(10.0));
  n.addResistor("r1", vin, mid, 1e3);
  n.addResistor("r2", mid, kGround, 3e3);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.solution[static_cast<std::size_t>(mid)], 7.5, 1e-6);
}

TEST(DcAnalysis, VsourceCurrentSign) {
  // 10 V across 1 kΩ: 10 mA flows out of + terminal through the circuit,
  // so the SPICE branch current (into +) is −10 mA.
  Netlist n;
  const NodeId a = n.node("a");
  n.addVSource("v1", a, kGround, Waveform::dc(10.0));
  n.addResistor("r1", a, kGround, 1e3);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(sim.vsourceCurrent(dc.solution, 0), -10e-3, 1e-9);
}

TEST(DcAnalysis, CurrentSourceIntoResistor) {
  Netlist n;
  const NodeId a = n.node("a");
  n.addISource("i1", kGround, a, Waveform::dc(1e-3));  // inject into a
  n.addResistor("r1", a, kGround, 2e3);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.solution[static_cast<std::size_t>(a)], 2.0, 1e-6);
}

TEST(DcAnalysis, InductorIsDcShort) {
  Netlist n;
  const NodeId vin = n.node("in"), mid = n.node("mid");
  n.addVSource("v1", vin, kGround, Waveform::dc(5.0));
  n.addInductor("l1", vin, mid, 1e-9);
  n.addResistor("r1", mid, kGround, 1e3);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.solution[static_cast<std::size_t>(mid)], 5.0, 1e-6);
  EXPECT_NEAR(dc.solution[sim.inductorBranch(0)], 5e-3, 1e-8);
}

TEST(DcAnalysis, DiodeDropIsAboutSixHundredMillivolts) {
  Netlist n;
  const NodeId vin = n.node("in"), mid = n.node("mid");
  n.addVSource("v1", vin, kGround, Waveform::dc(5.0));
  n.addResistor("r1", vin, mid, 10e3);
  n.addDiode("d1", mid, kGround, DiodeParams{});
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  const double vd = dc.solution[static_cast<std::size_t>(mid)];
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.75);
}

TEST(DcAnalysis, NmosSaturationBiasMatchesSquareLaw) {
  // VDD=3V, drain resistor 10k, vgs=1.0, vt=0.5, kp=2e-4, W/L=10:
  // id = 0.5·2e-3·0.25 = 0.25 mA (λ=0) → vd = 3 − 2.5 = 0.5 V.
  Netlist n;
  const NodeId vdd = n.node("vdd"), d = n.node("d"), g = n.node("g");
  n.addVSource("vdd", vdd, kGround, Waveform::dc(3.0));
  n.addVSource("vg", g, kGround, Waveform::dc(1.0));
  n.addResistor("rd", vdd, d, 10e3);
  MosfetParams p;
  p.vt0 = 0.5;
  p.kp = 2e-4;
  p.lambda = 0.0;
  p.w = 10e-6;
  p.l = 1e-6;
  n.addMosfet("m1", d, g, kGround, p);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.solution[static_cast<std::size_t>(d)], 0.5, 1e-3);
  EXPECT_NEAR(sim.mosfetCurrent(dc.solution, 0), 0.25e-3, 1e-7);
}

TEST(DcAnalysis, PmosSourceFollowsSupply) {
  // PMOS with gate at 0, source at VDD=2V: |vgs| = 2 ≫ vt → on, drain
  // pulls the 100k load high.
  Netlist n;
  const NodeId vdd = n.node("vdd"), d = n.node("d");
  n.addVSource("vdd", vdd, kGround, Waveform::dc(2.0));
  MosfetParams p;
  p.is_pmos = true;
  p.vt0 = 0.5;
  p.w = 20e-6;
  p.l = 1e-6;
  n.addMosfet("m1", d, kGround, vdd, p);  // d, g=gnd, s=vdd
  n.addResistor("rl", d, kGround, 100e3);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_GT(dc.solution[static_cast<std::size_t>(d)], 1.8);
}

TEST(DcAnalysis, NmosCurrentMirrorRatio) {
  // Diode-connected reference at 100 µA mirrored into a 2× wide device.
  Netlist n;
  const NodeId ref = n.node("ref"), out = n.node("out"),
               vdd = n.node("vdd");
  n.addVSource("vdd", vdd, kGround, Waveform::dc(3.0));
  n.addISource("iref", vdd, ref, Waveform::dc(100e-6));
  MosfetParams p;
  p.vt0 = 0.5;
  p.kp = 2e-4;
  p.lambda = 0.0;  // ideal mirror
  p.w = 10e-6;
  p.l = 1e-6;
  n.addMosfet("m_ref", ref, ref, kGround, p);  // diode-connected
  MosfetParams p2 = p;
  p2.w = 20e-6;
  n.addMosfet("m_out", out, ref, kGround, p2);
  n.addResistor("r_out", vdd, out, 5e3);
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(sim.mosfetCurrent(dc.solution, 1), 200e-6, 2e-6);
}

// ---------------------------------------------------------------- transient --

TEST(TransientAnalysis, RcStepChargingMatchesExponential) {
  // 1 V step into RC with τ = 1 µs.
  Netlist n;
  const NodeId in = n.node("in"), out = n.node("out");
  n.addVSource("v1", in, kGround,
               Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0));
  n.addResistor("r1", in, out, 1e3);
  n.addCapacitor("c1", out, kGround, 1e-9);
  Simulator sim(n);
  const TransientResult tr = sim.transient(5e-6, 1e-8);
  ASSERT_TRUE(tr.converged);
  const double tau = 1e-6;
  for (std::size_t k = 10; k < tr.time.size(); k += 50) {
    const double expected = 1.0 - std::exp(-tr.time[k] / tau);
    EXPECT_NEAR(tr.nodeVoltage(k, out), expected, 0.01)
        << "t=" << tr.time[k];
  }
}

TEST(TransientAnalysis, RlCurrentRiseMatchesExponential) {
  // 1 V step into R=1k, L=1mH: i(t) = (V/R)(1 − e^{−t/τ}), τ = 1 µs.
  Netlist n;
  const NodeId in = n.node("in"), mid = n.node("mid");
  n.addVSource("v1", in, kGround,
               Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0));
  n.addResistor("r1", in, mid, 1e3);
  n.addInductor("l1", mid, kGround, 1e-3);
  Simulator sim(n);
  const TransientResult tr = sim.transient(5e-6, 1e-8);
  ASSERT_TRUE(tr.converged);
  const double tau = 1e-6;
  for (std::size_t k = 20; k < tr.time.size(); k += 60) {
    const double expected = 1e-3 * (1.0 - std::exp(-tr.time[k] / tau));
    EXPECT_NEAR(tr.value(k, sim.inductorBranch(0)), expected, 2e-5)
        << "t=" << tr.time[k];
  }
}

TEST(TransientAnalysis, SinusoidalSteadyStateAmplitudeRcLowpass) {
  // RC low-pass at its corner frequency: |H| = 1/√2, phase −45°.
  const double f = 1e6;
  const double r = 1e3;
  const double c = 1.0 / (2.0 * std::numbers::pi * f * r);  // corner at f
  Netlist n;
  const NodeId in = n.node("in"), out = n.node("out");
  n.addVSource("v1", in, kGround, Waveform::sine(0.0, 1.0, f));
  n.addResistor("r1", in, out, r);
  n.addCapacitor("c1", out, kGround, c);
  Simulator sim(n);
  // 20 periods, 200 steps per period; analyze after 10 periods.
  const TransientResult tr = sim.transient(20e-6, 1.0 / (200.0 * f));
  ASSERT_TRUE(tr.converged);
  const auto harmonics = nodeHarmonics(tr, out, f, 3, 10e-6);
  EXPECT_NEAR(harmonics[1].magnitude, 1.0 / std::sqrt(2.0), 0.01);
}

TEST(TransientAnalysis, CapacitorBlocksDc) {
  // Series C into R load: in steady state, no DC passes.
  Netlist n;
  const NodeId in = n.node("in"), out = n.node("out");
  n.addVSource("v1", in, kGround, Waveform::dc(5.0));
  n.addCapacitor("c1", in, out, 1e-9);
  n.addResistor("r1", out, kGround, 1e3);
  Simulator sim(n);
  const TransientResult tr = sim.transient(20e-6, 1e-8);
  ASSERT_TRUE(tr.converged);
  EXPECT_NEAR(tr.nodeVoltage(tr.time.size() - 1, out), 0.0, 1e-3);
}

TEST(TransientAnalysis, EnergyConservationLcTank) {
  // Ideal LC tank rung from an initial capacitor charge via a source that
  // disconnects: amplitude should persist (trapezoid is non-dissipative).
  const double l = 1e-6, c = 1e-12;
  const double f0 = 1.0 / (2.0 * std::numbers::pi * std::sqrt(l * c));
  Netlist n;
  const NodeId top = n.node("top");
  // Huge resistor keeps the DC solvable; source charges the cap via a big
  // resistor, then the tank oscillates nearly freely.
  n.addVSource("v1", n.node("src"), kGround,
               Waveform::pulse(1.0, 0.0, 1e-12, 1e-12, 1e-12, 1.0, 0.0));
  n.addResistor("rbig", n.node("src"), top, 1e9);
  n.addCapacitor("c1", top, kGround, c);
  n.addInductor("l1", top, kGround, l);
  Simulator sim(n);
  const TransientResult tr = sim.transient(20.0 / f0, 1.0 / (400.0 * f0));
  ASSERT_TRUE(tr.converged);
  // Peak voltage in the last quarter vs the first quarter after startup.
  double early_peak = 0.0, late_peak = 0.0;
  for (std::size_t k = 0; k < tr.time.size() / 4; ++k)
    early_peak = std::max(early_peak, std::abs(tr.nodeVoltage(k, top)));
  for (std::size_t k = 3 * tr.time.size() / 4; k < tr.time.size(); ++k)
    late_peak = std::max(late_peak, std::abs(tr.nodeVoltage(k, top)));
  EXPECT_NEAR(late_peak, early_peak, 0.05 * early_peak + 1e-6);
}

TEST(TransientAnalysis, ThrowsOnBadTiming) {
  Netlist n;
  n.addResistor("r", n.node("a"), kGround, 1.0);
  Simulator sim(n);
  EXPECT_THROW(sim.transient(0.0, 1e-9), std::invalid_argument);
  EXPECT_THROW(sim.transient(1e-6, 0.0), std::invalid_argument);
}

// --------------------------------------------------------------------- FFT --

TEST(FftTest, KnownSpectrumOfPureTone) {
  const std::size_t n = 256;
  std::vector<std::complex<double>> data(n);
  // cos(2π·8·k/n): bins 8 and n−8 get n/2 each.
  for (std::size_t k = 0; k < n; ++k)
    data[k] = std::cos(2.0 * std::numbers::pi * 8.0 * static_cast<double>(k) /
                       static_cast<double>(n));
  fftRadix2(data);
  EXPECT_NEAR(std::abs(data[8]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - 8]), static_cast<double>(n) / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[7]), 0.0, 1e-9);
}

TEST(FftTest, LinearityAndParseval) {
  const std::size_t n = 128;
  std::vector<std::complex<double>> data(n);
  double time_energy = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double t = static_cast<double>(k);
    data[k] = std::sin(0.3 * t) + 0.5 * std::cos(0.7 * t);
    time_energy += std::norm(data[k]);
  }
  fftRadix2(data);
  double freq_energy = 0.0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-9 * time_energy);
}

TEST(FftTest, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> data(100);
  EXPECT_THROW(fftRadix2(data), std::invalid_argument);
}

TEST(HarmonicAnalysisTest, RecoversSynthesizedHarmonics) {
  const double f0 = 1e3, dt = 1.0 / (1000.0 * f0);
  std::vector<double> samples;
  for (std::size_t k = 0; k <= 5000; ++k) {  // 5 periods
    const double t = static_cast<double>(k) * dt;
    samples.push_back(0.2 +
                      1.5 * std::sin(2 * std::numbers::pi * f0 * t + 0.3) +
                      0.4 * std::sin(2 * std::numbers::pi * 2 * f0 * t) +
                      0.1 * std::sin(2 * std::numbers::pi * 3 * f0 * t));
  }
  const auto h = harmonicAnalysis(samples, dt, f0, 4);
  ASSERT_EQ(h.size(), 5u);
  EXPECT_NEAR(h[0].magnitude, 0.2, 1e-6);
  EXPECT_NEAR(h[1].magnitude, 1.5, 1e-6);
  EXPECT_NEAR(h[2].magnitude, 0.4, 1e-6);
  EXPECT_NEAR(h[3].magnitude, 0.1, 1e-6);
  EXPECT_NEAR(h[4].magnitude, 0.0, 1e-6);
  const double expected_thd = std::sqrt(0.4 * 0.4 + 0.1 * 0.1) / 1.5;
  EXPECT_NEAR(totalHarmonicDistortion(h), expected_thd, 1e-6);
  EXPECT_NEAR(totalHarmonicDistortionDb(h),
              20.0 * std::log10(expected_thd), 1e-6);
}

TEST(HarmonicAnalysisTest, PureToneThdIsZero) {
  const double f0 = 1e3, dt = 1e-6;
  std::vector<double> samples;
  for (std::size_t k = 0; k <= 3000; ++k)
    samples.push_back(
        std::sin(2 * std::numbers::pi * f0 * static_cast<double>(k) * dt));
  const auto h = harmonicAnalysis(samples, dt, f0, 5);
  EXPECT_NEAR(totalHarmonicDistortion(h), 0.0, 1e-9);
}

TEST(HarmonicAnalysisTest, ThrowsWhenWindowTooShort) {
  std::vector<double> samples(10, 1.0);
  EXPECT_THROW(harmonicAnalysis(samples, 1e-6, 1e3, 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------- measure --

TEST(MeasureTest, AverageSourcePowerIntoResistor) {
  // 2 V DC across 100 Ω: P = 40 mW delivered.
  Netlist n;
  const NodeId a = n.node("a");
  n.addVSource("v1", a, kGround, Waveform::dc(2.0));
  n.addResistor("r1", a, kGround, 100.0);
  Simulator sim(n);
  const TransientResult tr = sim.transient(1e-6, 1e-8);
  ASSERT_TRUE(tr.converged);
  EXPECT_NEAR(averageSourcePower(sim, tr, 0, 0.0), 0.04, 1e-6);
}

TEST(MeasureTest, SineSourceIntoResistorAveragePower) {
  // 1 V amplitude sine across 50 Ω: P = V²/(2R) = 10 mW.
  const double f = 1e6;
  Netlist n;
  const NodeId a = n.node("a");
  n.addVSource("v1", a, kGround, Waveform::sine(0.0, 1.0, f));
  n.addResistor("r1", a, kGround, 50.0);
  Simulator sim(n);
  const TransientResult tr = sim.transient(10e-6, 1.0 / (500.0 * f));
  ASSERT_TRUE(tr.converged);
  EXPECT_NEAR(averageSourcePower(sim, tr, 0, 5e-6), 0.01, 2e-4);
  EXPECT_NEAR(fundamentalLoadPower(tr, a, 50.0, f, 5e-6), 0.01, 1e-4);
}

TEST(MeasureTest, MosfetCurrentStatsOnSwitchedDevice) {
  // Square-wave gate: current toggles between 0 and the saturation value.
  Netlist n;
  const NodeId vdd = n.node("vdd"), d = n.node("d"), g = n.node("g");
  n.addVSource("vdd", vdd, kGround, Waveform::dc(2.0));
  n.addVSource("vg", g, kGround,
               Waveform::pulse(0.0, 1.0, 0.0, 1e-9, 1e-9, 0.5e-6, 1e-6));
  n.addResistor("rd", vdd, d, 1e3);
  MosfetParams p;
  p.vt0 = 0.5;
  p.kp = 2e-4;
  p.lambda = 0.0;
  p.w = 10e-6;
  p.l = 1e-6;
  n.addMosfet("m1", d, g, kGround, p);
  Simulator sim(n);
  const TransientResult tr = sim.transient(4e-6, 2e-9);
  ASSERT_TRUE(tr.converged);
  const CurrentStats stats = mosfetCurrentStats(sim, tr, 0, 1e-6);
  EXPECT_NEAR(stats.min, 0.0, 1e-6);
  EXPECT_NEAR(stats.max, 0.25e-3, 1e-5);
  EXPECT_NEAR(stats.avg, 0.125e-3, 2e-5);
}

// -------------------------------------------------------------------- PVT --

TEST(PvtTest, GridHas27CornersCenteredOnNominal) {
  const auto grid = fullPvtGrid();
  ASSERT_EQ(grid.size(), 27u);
  const PvtCorner& center = grid[13];
  EXPECT_DOUBLE_EQ(center.kp_scale, 1.0);
  EXPECT_DOUBLE_EQ(center.vdd_scale, 1.0);
  EXPECT_DOUBLE_EQ(center.temp_c, 27.0);
}

TEST(PvtTest, NominalCornerIsIdentityOnParams) {
  MosfetParams p;
  p.kp = 3e-4;
  p.vt0 = 0.45;
  const MosfetParams q = applyCorner(p, nominalCorner());
  EXPECT_NEAR(q.kp, p.kp, 1e-12);
  EXPECT_NEAR(q.vt0, p.vt0, 1e-12);
}

TEST(PvtTest, CornersMoveParametersInTheRightDirection) {
  MosfetParams p;
  const auto grid = fullPvtGrid();
  // At matched supply and temperature, process ordering is SS < TT < FF in
  // mobility and SS > TT > FF in threshold.
  for (std::size_t i = 0; i < 9; ++i) {
    const MosfetParams ss = applyCorner(p, grid[i]);        // SS block
    const MosfetParams tt = applyCorner(p, grid[9 + i]);    // TT block
    const MosfetParams ff = applyCorner(p, grid[18 + i]);   // FF block
    EXPECT_LT(ss.kp, tt.kp);
    EXPECT_LT(tt.kp, ff.kp);
    EXPECT_GT(ss.vt0, tt.vt0);
    EXPECT_GT(tt.vt0, ff.vt0);
  }
  for (const PvtCorner& c : grid) {
    const MosfetParams q = applyCorner(p, c);
    EXPECT_GT(q.kp, 0.0);
    EXPECT_GT(q.vt0, 0.0);
  }
  // Hot silicon: slower (lower kp), lower vt. Cold silicon: faster.
  PvtCorner hot = nominalCorner();
  hot.temp_c = 125.0;
  const MosfetParams h = applyCorner(p, hot);
  EXPECT_LT(h.kp, p.kp);
  EXPECT_LT(h.vt0, p.vt0);
  PvtCorner cold = nominalCorner();
  cold.temp_c = -40.0;
  EXPECT_GT(applyCorner(p, cold).kp, p.kp);
}

TEST(PvtTest, CornerCurrentsSpreadAroundNominal) {
  // The same bias point simulated across corners must produce a current
  // spread that brackets the nominal value — the property the charge-pump
  // constraints are built on.
  MosfetParams p;
  p.vt0 = 0.5;
  p.kp = 2e-4;
  p.w = 10e-6;
  p.l = 1e-6;
  const double nominal_id = mosfetEval(p, 1.0, 1.5).id;
  double lo = nominal_id, hi = nominal_id;
  for (const PvtCorner& c : fullPvtGrid()) {
    const double id = mosfetEval(applyCorner(p, c), 1.0, 1.5).id;
    lo = std::min(lo, id);
    hi = std::max(hi, id);
  }
  EXPECT_LT(lo, 0.95 * nominal_id);
  EXPECT_GT(hi, 1.05 * nominal_id);
}

// ---------------------------------------------------------- Golden bits --
//
// The simulator's results pinned bit for bit as hex-float literals. DC,
// transient and AC analysis share one set of device stamps, so a change to
// any stamp's terms, or to the order in which they reach the matrix and
// the right-hand side, moves a bit here. Only a change meant to alter the
// numerics may rewrite these values, and it must say so.

/// Every device kind: R, C, L, V (DC, SIN and PULSE; two carry an AC
/// stimulus), I with an AC stimulus, nmos, pmos, diode, E and G.
constexpr const char* kEveryDeviceDeck = R"(
Vdd vdd 0 DC 1.8
Vin in 0 SIN(0.9 0.05 10meg) AC 1.0
Vclk clk 0 PULSE(0 1.8 2n 1n 1n 23n 50n) AC 0.5 0.3
Ib vdd bias 10u AC 1u 0.5
R1 vdd d1 10k
R2 bias 0 50k
Rclk clk sw 1k
Csw sw 0 2p
C1 d1 0 1p
L1 d1 d2 1u
R3 d2 0 20k
M1 d1 in 0 nmos w=10u l=0.5u vt=0.45 kp=2e-4 lambda=0.05
M2 out bias vdd pmos w=20u l=0.5u vt=0.45 kp=1e-4 lambda=0.05
R4 out 0 20k
D1 out x is=1e-14 n=1.2
R5 x 0 5k
E1 e 0 d1 d2 2
R6 e sw 1k
G1 g 0 in d2 1m
R7 g 0 1k
C2 g e 0.5p
.end
)";

struct DcTran {
  double dc, tran_final;
};
/// Per unknown (nodes vdd in clk bias d1 sw d2 out x e g, then the branch
/// currents of Vdd, Vin, Vclk, L1 and E1): the DC operating point, and the
/// state at the end of a 110 ns transient in 0.5 ns steps.
constexpr DcTran kDeckDcTran[] = {
    {0x1.ccccccccccccdp+0, 0x1.ccccccccccccdp+0},
    {0x1.ccccccccccccdp-1, 0x1.dbd8e8d05de1fp-1},
    {0x0p+0, 0x1.ccccccccccccdp+0},
    {0x1.fffffe5280d74p-2, 0x1.fffffe5280ddcp-2},
    {0x1.a4a1186f728a2p-4, 0x1.889a638bf5c78p-4},
    {0x0p+0, 0x1.cc8d826f0c1fdp-1},
    {0x1.a4a1186f728a2p-4, 0x1.88b9b6c41121fp-4},
    {0x1.b693f1c9f0b23p+0, 0x1.b693ed85b2ceep+0},
    {0x1.f4cb52bba4c21p-1, 0x1.f4cbd7fa1e678p-1},
    {0x0p+0, -0x1.f53381b5a78p-15},
    {-0x1.9838a9b8052f7p-1, -0x1.a9ef06d0ab1ffp-1},
    {-0x1.e3684be14246dp-12, -0x1.e4202dbd72d5fp-12},
    {-0x1.faa7ab552a552p-41, -0x1.05998ddf4f6b8p-40},
    {0x0p+0, -0x1.d81cc3d0e92edp-11},
    {0x1.58945aeb97678p-18, 0x1.41b87f34b5daep-18},
    {0x0p+0, 0x1.d6cb70c191411p-11},
};

struct Phasor {
  double re, im;
};
/// Per unknown, the AC phasors at 10 MHz, 100 MHz and 1 GHz.
constexpr Phasor kDeckAc[] = {
    // 10 MHz
    {0x0p+0, 0x0p+0},
    {0x1p+0, 0x0p+0},
    {0x1.e921dd42f09bap-2, 0x1.2e9cd95baba33p-3},
    {0x1.677532570a183p-5, 0x1.88bed153e477ap-6},
    {-0x1.0f8708753ff01p-2, 0x1.5e4f3c68978fep-7},
    {0x1.f07f6ad01a06ap-3, 0x1.d99e5c5bce80bp-5},
    {-0x1.0f7d8af811f1fp-2, 0x1.799a4b1426ebdp-7},
    {-0x1.2db39b6d11b35p-8, -0x1.49a4024b618c4p-9},
    {-0x1.246dc42e9fdf7p-8, -0x1.3f8256b43795bp-9},
    {-0x1.2fafa5bfc3347p-14, -0x1.b4b0eab8f5bf5p-10},
    {-0x1.43728323ec7bp+0, 0x1.a38bf7ac90648p-5},
    {-0x1.b8c286d4fce9bp-16, 0x1.42e7a6cba950fp-20},
    {-0x1.19799812dea11p-40, 0x0p+0},
    {-0x1.ed54497f2bd4fp-13, -0x1.794210f97012dp-14},
    {-0x1.bccf548011af2p-17, 0x1.3555076ee1e45p-21},
    {0x1.f914e167ebac7p-13, 0x1.4c051c2f9e16fp-16},
    // 100 MHz
    {0x0p+0, 0x0p+0},
    {0x1p+0, 0x0p+0},
    {0x1.e921dd42f09bap-2, 0x1.2e9cd95baba33p-3},
    {0x1.677532570a166p-5, 0x1.88bed153e4777p-6},
    {-0x1.d3e5254cad68ep-3, 0x1.794b974c56dedp-4},
    {0x1.97bd5f00ea6e5p-3, -0x1.dd88225cff834p-5},
    {-0x1.cd8358365a01ap-3, 0x1.964b01fc114dp-4},
    {-0x1.2db39b6d11b2p-8, -0x1.49a4024b618bdp-9},
    {-0x1.246dc42e9fde4p-8, -0x1.3f8256b437952p-9},
    {-0x1.98734594d9dp-8, -0x1.cff6aafba6e2fp-7},
    {-0x1.155b398b6d19cp+0, 0x1.c01ac305d7adcp-2},
    {-0x1.7b305d5df0a73p-16, 0x1.39925b73af445p-17},
    {-0x1.19799812dea11p-40, 0x0p+0},
    {-0x1.241bd4c75c5d5p-12, -0x1.b01f9fb644d72p-13},
    {-0x1.7a124e7e541bfp-17, 0x1.4cd5d1bab1711p-18},
    {0x1.09ea590647288p-14, -0x1.912011ed6cf41p-12},
    // 1 GHz
    {0x0p+0, 0x0p+0},
    {0x1p+0, 0x0p+0},
    {0x1.e921dd42f09bap-2, 0x1.2e9cd95baba33p-3},
    {0x1.677532570a177p-5, 0x1.88bed153e477dp-6},
    {-0x1.f6e28f27dd806p-7, 0x1.fc740d10d17b6p-5},
    {0x1.17d68fa630fe3p-6, -0x1.082fa45311907p-5},
    {0x1.ef565efa45a9ap-9, 0x1.f2ba36b61257cp-5},
    {-0x1.2db39b6d11b2cp-8, -0x1.49a4024b618c3p-9},
    {-0x1.246dc42e9fdefp-8, -0x1.3f8256b437958p-9},
    {-0x1.395c137337756p-5, 0x1.373acb57e4748p-9},
    {-0x1.c06914b9102ecp-4, 0x1.237733901fa93p-2},
    {-0x1.5a3107bb04ab9p-20, 0x1.a981fef7de1dcp-18},
    {-0x1.19799812dea11p-40, 0x0p+0},
    {-0x1.e2f639aac2ebep-12, -0x1.7981cd45228ccp-13},
    {0x1.95c7c7fd1dbfdp-23, 0x1.988eb7ccbb5ap-19},
    {-0x1.b3e67825186cdp-11, -0x1.0eedea5d8efa4p-12},
};

TEST(GoldenBits, EveryDeviceDeckDcSolution) {
  const Netlist net = parseNetlist(kEveryDeviceDeck);
  Simulator sim(net);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  ASSERT_EQ(dc.solution.size(), std::size(kDeckDcTran));
  for (std::size_t i = 0; i < dc.solution.size(); ++i)
    EXPECT_EQ(dc.solution[i], kDeckDcTran[i].dc) << "unknown " << i;
}

TEST(GoldenBits, EveryDeviceDeckTransientFinalState) {
  const Netlist net = parseNetlist(kEveryDeviceDeck);
  Simulator sim(net);
  const TransientResult tr = sim.transient(110e-9, 0.5e-9);
  ASSERT_TRUE(tr.converged);
  ASSERT_EQ(tr.time.size(), 221u);
  ASSERT_EQ(tr.unknowns.size(), std::size(kDeckDcTran));
  for (std::size_t i = 0; i < tr.unknowns.size(); ++i)
    EXPECT_EQ(tr.value(220, i), kDeckDcTran[i].tran_final) << "unknown " << i;
}

TEST(GoldenBits, EveryDeviceDeckAcPhasors) {
  const Netlist net = parseNetlist(kEveryDeviceDeck);
  Simulator sim(net);
  const AcResult ac = acAnalysis(sim, 1e7, 1e9, 1);
  ASSERT_TRUE(ac.converged);
  ASSERT_EQ(ac.freq.size(), 3u);
  const std::size_t n = sim.dim();
  ASSERT_EQ(3 * n, std::size(kDeckAc));
  for (std::size_t k = 0; k < ac.freq.size(); ++k)
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ac.solution[k][i].real(), kDeckAc[k * n + i].re)
          << "point " << k << ", unknown " << i;
      EXPECT_EQ(ac.solution[k][i].imag(), kDeckAc[k * n + i].im)
          << "point " << k << ", unknown " << i;
    }
}

TEST(GoldenBits, PowerAmplifierBothFidelities) {
  const mfbo::problems::PowerAmplifierProblem pa;
  const mfbo::bo::Vector x{6e-12, 2.3e-12, 4e-3, 2.0, 0.7};
  const auto lo = pa.simulate(x, mfbo::bo::Fidelity::kLow);
  const auto hi = pa.simulate(x, mfbo::bo::Fidelity::kHigh);
  ASSERT_TRUE(lo.valid);
  ASSERT_TRUE(hi.valid);
  EXPECT_EQ(lo.eff, 0x1.83e6abd302409p+6);
  EXPECT_EQ(lo.pout_dbm, 0x1.74e3a0ad78baap+4);
  EXPECT_EQ(lo.thd_db, 0x1.e5ccdc7d56cep+0);
  EXPECT_EQ(hi.eff, 0x1.79244c157616ap+6);
  EXPECT_EQ(hi.pout_dbm, 0x1.757982fa10545p+4);
  EXPECT_EQ(hi.thd_db, 0x1.1f67c2baa804p+1);
}

TEST(GoldenBits, ChargePumpBothFidelities) {
  const mfbo::problems::ChargePumpProblem cp;
  const mfbo::bo::Vector x = cp.referenceDesign();
  const auto lo = cp.simulate(x, mfbo::bo::Fidelity::kLow);
  const auto hi = cp.simulate(x, mfbo::bo::Fidelity::kHigh);
  ASSERT_TRUE(lo.valid);
  ASSERT_TRUE(hi.valid);
  EXPECT_EQ(lo.max_diff1, 0x1.bee639195fp-3);
  EXPECT_EQ(lo.max_diff2, 0x1.a29202d94dp-1);
  EXPECT_EQ(lo.max_diff3, 0x1.727b02b6978p-6);
  EXPECT_EQ(lo.max_diff4, 0x1.67bd795e2b7p-3);
  EXPECT_EQ(lo.deviation, 0x1.12200319b8dcp+0);
  EXPECT_EQ(lo.fom, 0x1.cfaad890ca29ap-1);
  EXPECT_EQ(hi.max_diff1, 0x1.9fdf6a29acccp-1);
  EXPECT_EQ(hi.max_diff2, 0x1.5c72abd4ce9bp+2);
  EXPECT_EQ(hi.max_diff3, 0x1.fd54fb76c888p-2);
  EXPECT_EQ(hi.max_diff4, 0x1.f00ea24c50afp+1);
  EXPECT_EQ(hi.deviation, 0x1.99074caefff1p+1);
  EXPECT_EQ(hi.fom, 0x1.3258648fa11cp+2);
}

TEST(GoldenBits, OpampBothFidelities) {
  const mfbo::problems::OpampProblem op;
  const mfbo::bo::Vector x = op.referenceDesign();
  const auto lo = op.simulate(x, mfbo::bo::Fidelity::kLow);
  const auto hi = op.simulate(x, mfbo::bo::Fidelity::kHigh);
  ASSERT_TRUE(lo.valid);
  ASSERT_TRUE(hi.valid);
  EXPECT_EQ(lo.gain_db, 0x1.c3d483763e63bp+5);
  EXPECT_EQ(lo.ugf_hz, 0x1.4d29517d9736p+26);
  EXPECT_EQ(lo.pm_deg, 0x1.03ff138e5660ep+6);
  EXPECT_EQ(lo.power_mw, 0x1.1afb6332af1d8p-2);
  EXPECT_EQ(hi.gain_db, 0x1.c3c1cd1402ef2p+5);
  EXPECT_EQ(hi.ugf_hz, 0x1.dbb7197043b8p+25);
  EXPECT_EQ(hi.pm_deg, 0x1.08d74a5ce0475p+6);
  EXPECT_EQ(hi.power_mw, 0x1.1afb6332af1d8p-2);
}

// ------------------------------------------------------ transient recording --

TEST(TransientRecording, SubsetMatchesTheFullRecordingBitForBit) {
  Netlist net = parseNetlist(kEveryDeviceDeck);
  const NodeId out = net.node("out");
  Simulator full_sim(net);
  const TransientResult full = full_sim.transient(110e-9, 0.5e-9);
  ASSERT_TRUE(full.converged);
  ASSERT_EQ(full.unknowns.size(), full_sim.dim());
  ASSERT_EQ(full.values.size(), full.time.size() * full_sim.dim());

  Simulator sim(net);
  const std::size_t branch = sim.vsourceBranch(0);
  const TransientResult part =
      sim.transient(110e-9, 0.5e-9, {branch, static_cast<std::size_t>(out)});
  ASSERT_TRUE(part.converged);
  ASSERT_EQ(part.time.size(), full.time.size());
  EXPECT_EQ(part.values.size(), 2 * part.time.size());
  for (std::size_t k = 0; k < part.time.size(); ++k) {
    EXPECT_EQ(part.time[k], full.time[k]);
    EXPECT_EQ(part.value(k, branch), full.value(k, branch)) << "step " << k;
    EXPECT_EQ(part.nodeVoltage(k, out), full.nodeVoltage(k, out))
        << "step " << k;
  }
  EXPECT_EQ(part.nodeVoltage(3, kGround), 0.0);
  EXPECT_THROW(part.value(0, 0), mfbo::ContractViolation);
  EXPECT_THROW(part.value(part.time.size(), branch), mfbo::ContractViolation);
  EXPECT_THROW(sim.transient(1e-9, 0.5e-9, {sim.dim()}),
               mfbo::ContractViolation);
}

TEST(TransientRecording, MeasurementsNeedWhatTheyReadRecorded) {
  Netlist n;
  const NodeId vdd = n.node("vdd"), d = n.node("d");
  n.addVSource("vdd", vdd, kGround, Waveform::dc(1.0));
  n.addResistor("rd", vdd, d, 1e3);
  MosfetParams p;
  p.w = 10e-6;
  p.l = 1e-6;
  n.addMosfet("m1", d, vdd, kGround, p);
  Simulator sim(n);
  const TransientResult only_d =
      sim.transient(1e-8, 1e-9, {static_cast<std::size_t>(d)});
  ASSERT_TRUE(only_d.converged);
  EXPECT_THROW(mosfetCurrentStats(sim, only_d, 0, 0.0),
               mfbo::ContractViolation);
  EXPECT_THROW(averageSourcePower(sim, only_d, 0, 0.0),
               mfbo::ContractViolation);
  const TransientResult all = sim.transient(1e-8, 1e-9);
  const double i_dc = sim.mosfetCurrent(sim.dcOperatingPoint().solution, 0);
  EXPECT_NEAR(mosfetCurrentStats(sim, all, 0, 0.0).avg, i_dc,
              1e-12 * std::abs(i_dc));
}

TEST(CircuitAllocations, PowerAmplifierSimulateAllocatesNothingPerStep) {
  const mfbo::problems::PowerAmplifierProblem pa;
  const mfbo::bo::Vector x{6e-12, 2.3e-12, 4e-3, 2.0, 0.7};
  for (const auto f : {mfbo::bo::Fidelity::kLow, mfbo::bo::Fidelity::kHigh}) {
    const std::uint64_t before = mfbo::memstats::threadCounters().alloc_count;
    const auto perf = pa.simulate(x, f);
    const std::uint64_t allocs =
        mfbo::memstats::threadCounters().alloc_count - before;
    ASSERT_TRUE(perf.valid);
    // Building the deck, the simulator's workspace and the recording: a
    // fixed count, against 30,720 high-fidelity steps.
    EXPECT_LT(allocs, 100u) << "fidelity " << static_cast<int>(f);
  }
}

/// Sum of the counter @p name over every node of a span tree.
double counterTotal(const mfbo::Json& node, const std::string& name) {
  double total = 0.0;
  if (node.contains("counters") && node.at("counters").contains(name))
    total += node.at("counters").at(name).asNumber();
  if (node.contains("children"))
    for (const auto& child : node.at("children").members())
      total += counterTotal(child.second, name);
  return total;
}

/// Span tree (no timing) of @p fn run under the profiler.
template <typename Fn>
mfbo::Json profiled(Fn&& fn) {
  mfbo::spans::reset();
  mfbo::spans::setEnabled(true);
  {
    const mfbo::spans::ScopedSpan span("test");
    fn();
  }
  mfbo::Json tree = mfbo::spans::snapshot(false);
  mfbo::spans::setEnabled(false);
  mfbo::spans::reset();
  return tree;
}

TEST(SpanCircuitCounters, PowerAmplifierHighFidelityAtOneAndFourThreads) {
  mfbo::problems::PowerAmplifierProblem pa;
  const mfbo::bo::Vector x{6e-12, 2.3e-12, 4e-3, 2.0, 0.7};
  const auto two_sims = [&] {
    mfbo::parallel::parallelFor(2, [&](std::size_t) {
      EXPECT_TRUE(pa.simulate(x, mfbo::bo::Fidelity::kHigh).valid);
    });
  };
  std::string trees[2];
  for (const std::size_t threads : {1u, 4u}) {
    mfbo::parallel::setMaxThreads(threads);
    const mfbo::Json tree = profiled(two_sims);
    mfbo::parallel::setMaxThreads(0);
    const double steps = counterTotal(tree, "circuit.transient_steps");
    EXPECT_EQ(steps, 2 * 30720.0);
    EXPECT_GT(counterTotal(tree, "circuit.newton_iterations"), steps);
    EXPECT_EQ(counterTotal(tree, "circuit.nonconverged"), 0.0);
    trees[threads == 1 ? 0 : 1] = tree.dump();
  }
  // Pool workers' counters merge into the caller's span: one tree at any
  // thread count.
  EXPECT_EQ(trees[0], trees[1]);
}

TEST(SpanCircuitCounters, NonconvergentDeckIsCountedAndPenalized) {
  // Two ideal sources forcing one node to different voltages: the MNA
  // system is singular, so every rung of the DC ladder fails.
  Netlist n;
  const NodeId a = n.node("a");
  n.addVSource("v1", a, kGround, Waveform::dc(1.0));
  n.addVSource("v2", a, kGround, Waveform::dc(2.0));
  n.addResistor("r1", a, kGround, 1e3);
  const mfbo::Json dc_tree = profiled([&] {
    Simulator sim(n);
    EXPECT_FALSE(sim.dcOperatingPoint().converged);
  });
  EXPECT_EQ(counterTotal(dc_tree, "circuit.nonconverged"), 1.0);
  EXPECT_EQ(counterTotal(dc_tree, "circuit.dc_gmin_stepping"), 1.0);
  EXPECT_EQ(counterTotal(dc_tree, "circuit.dc_source_stepping"), 1.0);

  // A 50 V PA supply, far outside the design box, does not converge: the
  // problem maps it to its fixed penalty and counts it.
  mfbo::problems::PowerAmplifierProblem pa;
  const mfbo::Json pa_tree = profiled([&] {
    const mfbo::bo::Evaluation e = pa.evaluate(
        {6e-12, 2.3e-12, 4e-3, 50.0, 0.7}, mfbo::bo::Fidelity::kLow);
    EXPECT_EQ(e.objective, 100.0);
  });
  EXPECT_EQ(counterTotal(pa_tree, "circuit.nonconverged"), 1.0);
  EXPECT_EQ(counterTotal(pa_tree, "problems.penalized_low"), 1.0);
  EXPECT_EQ(counterTotal(pa_tree, "problems.penalized_high"), 0.0);
}

}  // namespace
