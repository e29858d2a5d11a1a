#include "circuit/netlist.h"

#include <cmath>
#include <stdexcept>

namespace mfbo::circuit {

namespace {

/// Throws std::invalid_argument unless @p value is finite.
void requireFinite(double value, const char* what) {
  if (!std::isfinite(value))
    throw std::invalid_argument(std::string("Netlist: ") + what +
                                " is not finite");
}

/// Throws std::invalid_argument unless @p value is finite and > 0.
void requirePositive(double value, const char* what) {
  requireFinite(value, what);
  if (!(value > 0.0))
    throw std::invalid_argument(std::string("Netlist: ") + what + " <= 0");
}

}  // namespace

NodeId Netlist::node(const std::string& name) {
  if (name == "0" || name == "gnd" || name == "GND") return kGround;
  if (const auto it = index_.find(name); it != index_.end())
    return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

const std::string& Netlist::nodeName(NodeId id) const {
  static const std::string ground = "0";
  if (id == kGround) return ground;
  if (id < 0 || static_cast<std::size_t>(id) >= names_.size())
    throw std::out_of_range("Netlist::nodeName: bad node id");
  return names_[static_cast<std::size_t>(id)];
}

void Netlist::validateNode(NodeId n) const {
  if (n != kGround &&
      (n < 0 || static_cast<std::size_t>(n) >= names_.size()))
    throw std::invalid_argument("Netlist: node id not from this netlist");
}

std::size_t Netlist::addResistor(std::string name, NodeId np, NodeId nn,
                                 double r) {
  validateNode(np);
  validateNode(nn);
  requirePositive(r, "resistance");
  resistors_.push_back({std::move(name), np, nn, r});
  return resistors_.size() - 1;
}

std::size_t Netlist::addCapacitor(std::string name, NodeId np, NodeId nn,
                                  double c) {
  validateNode(np);
  validateNode(nn);
  requirePositive(c, "capacitance");
  capacitors_.push_back({std::move(name), np, nn, c});
  return capacitors_.size() - 1;
}

std::size_t Netlist::addInductor(std::string name, NodeId np, NodeId nn,
                                 double l) {
  validateNode(np);
  validateNode(nn);
  requirePositive(l, "inductance");
  inductors_.push_back({std::move(name), np, nn, l});
  return inductors_.size() - 1;
}

std::size_t Netlist::addVSource(std::string name, NodeId np, NodeId nn,
                                Waveform w) {
  validateNode(np);
  validateNode(nn);
  vsources_.push_back({std::move(name), np, nn, w});
  return vsources_.size() - 1;
}

std::size_t Netlist::addISource(std::string name, NodeId np, NodeId nn,
                                Waveform w) {
  validateNode(np);
  validateNode(nn);
  isources_.push_back({std::move(name), np, nn, w});
  return isources_.size() - 1;
}

std::size_t Netlist::addMosfet(std::string name, NodeId d, NodeId g, NodeId s,
                               MosfetParams params) {
  validateNode(d);
  validateNode(g);
  validateNode(s);
  requirePositive(params.w, "MOSFET w");
  requirePositive(params.l, "MOSFET l");
  requirePositive(params.kp, "MOSFET kp");
  requireFinite(params.vt0, "MOSFET vt");
  requireFinite(params.lambda, "MOSFET lambda");
  mosfets_.push_back({std::move(name), d, g, s, params});
  return mosfets_.size() - 1;
}

std::size_t Netlist::addDiode(std::string name, NodeId np, NodeId nn,
                              DiodeParams params) {
  validateNode(np);
  validateNode(nn);
  requirePositive(params.is, "diode is");
  requirePositive(params.n, "diode n");
  requirePositive(params.vt, "diode vt");
  diodes_.push_back({std::move(name), np, nn, params});
  return diodes_.size() - 1;
}

std::size_t Netlist::addVcvs(std::string name, NodeId np, NodeId nn,
                             NodeId cp, NodeId cn, double gain) {
  validateNode(np);
  validateNode(nn);
  validateNode(cp);
  validateNode(cn);
  requireFinite(gain, "VCVS gain");
  vcvs_.push_back({std::move(name), np, nn, cp, cn, gain});
  return vcvs_.size() - 1;
}

std::size_t Netlist::addVccs(std::string name, NodeId np, NodeId nn,
                             NodeId cp, NodeId cn, double gm) {
  validateNode(np);
  validateNode(nn);
  validateNode(cp);
  validateNode(cn);
  requireFinite(gm, "VCCS gm");
  vccs_.push_back({std::move(name), np, nn, cp, cn, gm});
  return vccs_.size() - 1;
}

std::size_t Netlist::vsourceIndex(const std::string& name) const {
  for (std::size_t i = 0; i < vsources_.size(); ++i)
    if (vsources_[i].name == name) return i;
  throw std::invalid_argument("Netlist: no voltage source named " + name);
}

std::size_t Netlist::mosfetIndex(const std::string& name) const {
  for (std::size_t i = 0; i < mosfets_.size(); ++i)
    if (mosfets_[i].name == name) return i;
  throw std::invalid_argument("Netlist: no MOSFET named " + name);
}

}  // namespace mfbo::circuit
