// Tests for the SPICE-style netlist parser: value suffixes, every card
// type, error reporting, and a parsed deck that simulates identically to a
// programmatically built one.
#include <gtest/gtest.h>

#include "circuit/parser.h"
#include "circuit/simulator.h"

namespace {

using namespace mfbo::circuit;

// -------------------------------------------------------- value parsing ----

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parseSpiceValue("42"), 42.0);
  EXPECT_DOUBLE_EQ(parseSpiceValue("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2.5E6"), 2.5e6);
}

TEST(SpiceValue, MagnitudeSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceValue("10k"), 1e4);
  EXPECT_DOUBLE_EQ(parseSpiceValue("3.3u"), 3.3e-6);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1p"), 1e-12);
  EXPECT_DOUBLE_EQ(parseSpiceValue("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("7m"), 7e-3);
  EXPECT_DOUBLE_EQ(parseSpiceValue("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(parseSpiceValue("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parseSpiceValue("2t"), 2e12);
}

TEST(SpiceValue, RejectsJunk) {
  EXPECT_THROW(parseSpiceValue(""), std::invalid_argument);
  EXPECT_THROW(parseSpiceValue("abc"), std::invalid_argument);
  EXPECT_THROW(parseSpiceValue("1x"), std::invalid_argument);
}

TEST(SpiceValue, RejectsNonFinite) {
  // strtod spells these as numbers, and a suffix can overflow a finite
  // mantissa; none of them is a device value.
  for (const char* token : {"inf", "-inf", "nan", "infinity", "1e308k"})
    EXPECT_THROW(parseSpiceValue(token), std::invalid_argument) << token;
}

// --------------------------------------------------------------- parsing ---

TEST(NetlistParser, ParsesPassiveCardsAndComments) {
  const Netlist n = parseNetlist(R"(
* a comment line
R1 a b 10k   * trailing comment
C1 b 0 1p
L1 a 0 2n
.end
this is ignored after .end
)");
  ASSERT_EQ(n.resistors().size(), 1u);
  ASSERT_EQ(n.capacitors().size(), 1u);
  ASSERT_EQ(n.inductors().size(), 1u);
  EXPECT_DOUBLE_EQ(n.resistors()[0].r, 1e4);
  EXPECT_DOUBLE_EQ(n.capacitors()[0].c, 1e-12);
  EXPECT_DOUBLE_EQ(n.inductors()[0].l, 2e-9);
  EXPECT_EQ(n.numNodes(), 2u);  // a, b (0 is ground)
}

TEST(NetlistParser, ParsesSources) {
  const Netlist n = parseNetlist(R"(
Vdd vdd 0 DC 1.8
Vin in 0 SIN(0.9 0.01 1meg) AC 1.0
Vp  p  0 PULSE(0 1.8 1n 0.1n 0.1n 5n 10n)
Ib  vdd nb 10u
)");
  ASSERT_EQ(n.vsources().size(), 3u);
  ASSERT_EQ(n.isources().size(), 1u);
  EXPECT_DOUBLE_EQ(n.vsources()[0].waveform.dcValue(), 1.8);
  EXPECT_DOUBLE_EQ(n.vsources()[1].ac_magnitude, 1.0);
  EXPECT_NEAR(n.vsources()[1].waveform.at(0.25e-6), 0.91, 1e-9);  // peak
  EXPECT_DOUBLE_EQ(n.vsources()[2].waveform.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(n.vsources()[2].waveform.at(3e-9), 1.8);
  EXPECT_DOUBLE_EQ(n.isources()[0].waveform.dcValue(), 10e-6);
}

TEST(NetlistParser, ParsesDevices) {
  const Netlist n = parseNetlist(R"(
M1 d g 0 nmos w=10u l=0.2u vt=0.45 kp=2e-4 lambda=0.05
M2 d2 g vdd pmos w=20u l=0.4u
D1 d 0 is=1e-14 n=1.2
)");
  ASSERT_EQ(n.mosfets().size(), 2u);
  ASSERT_EQ(n.diodes().size(), 1u);
  EXPECT_FALSE(n.mosfets()[0].params.is_pmos);
  EXPECT_DOUBLE_EQ(n.mosfets()[0].params.w, 10e-6);
  EXPECT_DOUBLE_EQ(n.mosfets()[0].params.l, 0.2e-6);
  EXPECT_DOUBLE_EQ(n.mosfets()[0].params.vt0, 0.45);
  EXPECT_TRUE(n.mosfets()[1].params.is_pmos);
  EXPECT_DOUBLE_EQ(n.diodes()[0].params.n, 1.2);
}

TEST(NetlistParser, ErrorsCarryLineNumbers) {
  try {
    parseNetlist("R1 a b 10k\nQ1 x y z\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parseNetlist("R1 a b\n"), std::invalid_argument);
  EXPECT_THROW(parseNetlist("M1 d g 0 bjt w=1u l=1u\n"),
               std::invalid_argument);
  EXPECT_THROW(parseNetlist("V1 a 0 SIN(1 2)\n"), std::invalid_argument);
  EXPECT_THROW(parseNetlist("R1 a 0 0\n"), std::invalid_argument);
}

TEST(NetlistParser, RejectsInvalidValuesWithLineNumbers) {
  // Each card carries an invalid device value. It must be a netlist error
  // that names its line, not a deck that "converges" on a non-finite value
  // or fails inside the DC solve's LU factorisation.
  for (const char* card :
       {"C1 b 0 inf", "R1 a b inf", "D1 b 0 is=-1", "D1 b 0 n=0",
        "M1 b a 0 nmos w=inf", "E1 b 0 a 0 nan"}) {
    const std::string deck = std::string("V1 a 0 DC 1\nR0 a b 1k\n") + card;
    try {
      parseNetlist(deck);
      ADD_FAILURE() << "accepted '" << card << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << card << ": " << e.what();
    }
  }
}

TEST(NetlistParser, ParsedDeckSimulatesLikeBuiltDeck) {
  // The NMOS bias point test from test_circuit, expressed as a deck.
  const Netlist n = parseNetlist(R"(
Vdd vdd 0 DC 3.0
Vg  g   0 DC 1.0
Rd  vdd d 10k
M1  d g 0 nmos w=10u l=1u vt=0.5 kp=2e-4 lambda=0
)");
  Simulator sim(n);
  const DcResult dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  EXPECT_NEAR(dc.solution[static_cast<std::size_t>(2)], 0.5, 1e-3);
  EXPECT_NEAR(sim.mosfetCurrent(dc.solution, 0), 0.25e-3, 1e-7);
}

TEST(NetlistParser, ParsedRcTransientMatchesAnalytic) {
  const Netlist n = parseNetlist(R"(
Vin in 0 PULSE(0 1 0 1p 1p 1 0)
R1 in out 1k
C1 out 0 1n
)");
  Simulator sim(n);
  const TransientResult tr = sim.transient(3e-6, 1e-8);
  ASSERT_TRUE(tr.converged);
  const NodeId out = 1;  // "out" is the second node created
  const double t = tr.time[150];
  EXPECT_NEAR(tr.nodeVoltage(150, out), 1.0 - std::exp(-t / 1e-6), 0.01);
}

}  // namespace
