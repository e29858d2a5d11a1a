#include "circuit/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace mfbo::circuit {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("netlist line " + std::to_string(line) + ": " +
                              message);
}

/// The literal @p token times its SPICE magnitude suffix.
double scaledValue(const std::string& token) {
  if (token.empty()) throw std::invalid_argument("empty numeric token");
  std::size_t consumed = 0;
  double value;
  try {
    value = std::stod(token, &consumed);
  } catch (const std::exception&) {
    throw std::invalid_argument("bad numeric token '" + token + "'");
  }
  std::string suffix = lower(token.substr(consumed));
  // Strip trailing unit letters after a recognized magnitude (e.g. "10uF").
  if (suffix.empty()) return value;
  if (suffix.rfind("meg", 0) == 0) return value * 1e6;
  switch (suffix[0]) {
    case 'f': return value * 1e-15;
    case 'p': return value * 1e-12;
    case 'n': return value * 1e-9;
    case 'u': return value * 1e-6;
    case 'm': return value * 1e-3;
    case 'k': return value * 1e3;
    case 'g': return value * 1e9;
    case 't': return value * 1e12;
    default:
      throw std::invalid_argument("bad numeric suffix in '" + token + "'");
  }
}

/// parseSpiceValue, failing with the deck line number.
double number(const std::string& token, std::size_t line) {
  try {
    return parseSpiceValue(token);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

/// Split a line into tokens; parentheses groups like SIN(0 1 2) are kept
/// together by joining until the closing paren.
std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> raw;
  std::istringstream iss(line);
  std::string tok;
  while (iss >> tok) raw.push_back(tok);

  std::vector<std::string> out;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::string t = raw[i];
    if (t.find('(') != std::string::npos &&
        t.find(')') == std::string::npos) {
      while (i + 1 < raw.size() && t.find(')') == std::string::npos)
        t += " " + raw[++i];
    }
    out.push_back(t);
  }
  return out;
}

/// "key=value" → pair; returns false when the token has no '='.
bool splitParam(const std::string& token, std::string& key,
                std::string& value) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return false;
  key = lower(token.substr(0, eq));
  value = token.substr(eq + 1);
  return true;
}

/// Extract the numbers inside "NAME(a b c)".
std::vector<double> parenArgs(const std::string& token, std::size_t line) {
  const auto open = token.find('(');
  const auto close = token.rfind(')');
  if (open == std::string::npos || close == std::string::npos ||
      close < open)
    fail(line, "malformed source specification '" + token + "'");
  std::istringstream iss(token.substr(open + 1, close - open - 1));
  std::vector<double> args;
  std::string t;
  while (iss >> t) args.push_back(number(t, line));
  return args;
}

/// Parse a V/I source's waveform plus optional "AC mag [phase]" suffix.
void parseSource(const std::vector<std::string>& tokens, std::size_t line,
                 Waveform& waveform, double& ac_mag, double& ac_phase) {
  // tokens[0..2] are name/np/nn; the rest describe the source.
  std::size_t i = 3;
  ac_mag = 0.0;
  ac_phase = 0.0;
  waveform = Waveform::dc(0.0);
  bool have_waveform = false;

  while (i < tokens.size()) {
    const std::string kind = lower(tokens[i]);
    if (kind == "dc") {
      if (i + 1 >= tokens.size()) fail(line, "DC needs a value");
      waveform = Waveform::dc(number(tokens[i + 1], line));
      have_waveform = true;
      i += 2;
    } else if (kind.rfind("sin", 0) == 0) {
      const auto args = parenArgs(tokens[i], line);
      if (args.size() < 3) fail(line, "SIN needs (offset ampl freq [phase])");
      waveform = Waveform::sine(args[0], args[1], args[2],
                                args.size() > 3 ? args[3] : 0.0);
      have_waveform = true;
      ++i;
    } else if (kind.rfind("pulse", 0) == 0) {
      const auto args = parenArgs(tokens[i], line);
      if (args.size() < 7)
        fail(line, "PULSE needs (v1 v2 td tr tf pw period)");
      waveform = Waveform::pulse(args[0], args[1], args[2], args[3], args[4],
                                 args[5], args[6]);
      have_waveform = true;
      ++i;
    } else if (kind == "ac") {
      if (i + 1 >= tokens.size()) fail(line, "AC needs a magnitude");
      ac_mag = number(tokens[i + 1], line);
      i += 2;
      // Optional phase (radians).
      if (i < tokens.size()) {
        try {
          ac_phase = parseSpiceValue(tokens[i]);
          ++i;
        } catch (const std::invalid_argument&) {
          // not a number: belongs to something else
        }
      }
    } else if (!have_waveform) {
      // Bare value ⇒ DC.
      waveform = Waveform::dc(number(tokens[i], line));
      have_waveform = true;
      ++i;
    } else {
      fail(line, "unexpected token '" + tokens[i] + "'");
    }
  }
}

}  // namespace

double parseSpiceValue(const std::string& token) {
  const double value = scaledValue(token);
  if (!std::isfinite(value))
    throw std::invalid_argument("non-finite value '" + token + "'");
  return value;
}

Netlist parseNetlist(const std::string& deck) {
  Netlist netlist;
  std::istringstream stream(deck);
  std::string line;
  std::size_t line_no = 0;

  while (std::getline(stream, line)) {
    ++line_no;
    // Strip comments and whitespace-only lines.
    if (const auto star = line.find('*'); star != std::string::npos)
      line = line.substr(0, star);
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;
    const std::string card = lower(tokens[0]);
    if (card == ".end") break;
    if (card[0] == '.') continue;  // other directives are ignored

    if (tokens.size() < 3) fail(line_no, "too few fields");
    const char kind = card[0];
    const std::string& name = tokens[0];

    switch (kind) {
      case 'r':
      case 'c':
      case 'l': {
        if (tokens.size() < 4) fail(line_no, "need <np> <nn> <value>");
        const NodeId np = netlist.node(tokens[1]);
        const NodeId nn = netlist.node(tokens[2]);
        const double value = number(tokens[3], line_no);
        try {
          if (kind == 'r') netlist.addResistor(name, np, nn, value);
          if (kind == 'c') netlist.addCapacitor(name, np, nn, value);
          if (kind == 'l') netlist.addInductor(name, np, nn, value);
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
        break;
      }
      case 'v':
      case 'i': {
        const NodeId np = netlist.node(tokens[1]);
        const NodeId nn = netlist.node(tokens[2]);
        Waveform w = Waveform::dc(0.0);
        double ac_mag = 0.0, ac_phase = 0.0;
        parseSource(tokens, line_no, w, ac_mag, ac_phase);
        if (kind == 'v') {
          const std::size_t idx = netlist.addVSource(name, np, nn, w);
          netlist.vsources()[idx].ac_magnitude = ac_mag;
          netlist.vsources()[idx].ac_phase = ac_phase;
        } else {
          const std::size_t idx = netlist.addISource(name, np, nn, w);
          netlist.isources()[idx].ac_magnitude = ac_mag;
          netlist.isources()[idx].ac_phase = ac_phase;
        }
        break;
      }
      case 'm': {
        if (tokens.size() < 5) fail(line_no, "need <d> <g> <s> <nmos|pmos>");
        const NodeId d = netlist.node(tokens[1]);
        const NodeId g = netlist.node(tokens[2]);
        const NodeId s = netlist.node(tokens[3]);
        const std::string type = lower(tokens[4]);
        MosfetParams params;
        if (type == "pmos") {
          params.is_pmos = true;
        } else if (type != "nmos") {
          fail(line_no, "MOSFET type must be nmos or pmos, got '" + type +
                            "'");
        }
        for (std::size_t i = 5; i < tokens.size(); ++i) {
          std::string key, value;
          if (!splitParam(tokens[i], key, value))
            fail(line_no, "expected key=value, got '" + tokens[i] + "'");
          const double v = number(value, line_no);
          if (key == "w") params.w = v;
          else if (key == "l") params.l = v;
          else if (key == "vt") params.vt0 = v;
          else if (key == "kp") params.kp = v;
          else if (key == "lambda") params.lambda = v;
          else fail(line_no, "unknown MOSFET parameter '" + key + "'");
        }
        try {
          netlist.addMosfet(name, d, g, s, params);
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
        break;
      }
      case 'd': {
        const NodeId np = netlist.node(tokens[1]);
        const NodeId nn = netlist.node(tokens[2]);
        DiodeParams params;
        for (std::size_t i = 3; i < tokens.size(); ++i) {
          std::string key, value;
          if (!splitParam(tokens[i], key, value))
            fail(line_no, "expected key=value, got '" + tokens[i] + "'");
          const double v = number(value, line_no);
          if (key == "is") params.is = v;
          else if (key == "n") params.n = v;
          else fail(line_no, "unknown diode parameter '" + key + "'");
        }
        try {
          netlist.addDiode(name, np, nn, params);
        } catch (const std::invalid_argument& e) {
          fail(line_no, e.what());
        }
        break;
      }
      case 'e':
      case 'g': {
        if (tokens.size() < 6)
          fail(line_no, "need <np> <nn> <cp> <cn> <gain>");
        const NodeId np = netlist.node(tokens[1]);
        const NodeId nn = netlist.node(tokens[2]);
        const NodeId cp = netlist.node(tokens[3]);
        const NodeId cn = netlist.node(tokens[4]);
        const double gain = number(tokens[5], line_no);
        if (kind == 'e')
          netlist.addVcvs(name, np, nn, cp, cn, gain);
        else
          netlist.addVccs(name, np, nn, cp, cn, gain);
        break;
      }
      default:
        fail(line_no, std::string("unknown card '") + card[0] + "'");
    }
  }
  return netlist;
}

}  // namespace mfbo::circuit
