// mfbo::circuit — SPICE-style netlist parser.
//
// Builds a Netlist from the familiar card syntax, so decks can live in
// files or string literals instead of C++:
//
//   * two-stage amp example
//   Vdd vdd 0 DC 1.8
//   Vin in  0 SIN(0.9 0.01 1e6) AC 1.0
//   R1  vdd d1 10k
//   C1  d1  0  1p
//   M1  d1 in 0 nmos w=10u l=0.2u vt=0.45 kp=2e-4 lambda=0.05
//   D1  d1 0
//   .end
//
// Supported cards: R/C/L (value), V/I (DC x | SIN(off amp freq [phase]) |
// PULSE(v1 v2 td tr tf pw per), optional trailing "AC mag [phase]"),
// M (d g s nmos|pmos with w=/l=/vt=/kp=/lambda= parameters),
// D (np nn with optional is=/n= parameters), and E / G (np nn cp cn gain:
// voltage-controlled voltage / current source). '*' starts a comment line;
// everything after .end is ignored. Values accept the SPICE magnitude
// suffixes f p n u m k meg g t and must be finite.
#pragma once

#include <string>

#include "circuit/netlist.h"

namespace mfbo::circuit {

/// Parse a numeric literal with an optional SPICE suffix ("10k" → 1e4,
/// "3.3u" → 3.3e-6, "2meg" → 2e6). Throws std::invalid_argument on junk
/// and on non-finite results ("inf", "nan", "1e308k").
double parseSpiceValue(const std::string& token);

/// Parse a full deck. Throws std::invalid_argument with the offending line
/// number on any syntax error or invalid device value.
Netlist parseNetlist(const std::string& deck);

}  // namespace mfbo::circuit
