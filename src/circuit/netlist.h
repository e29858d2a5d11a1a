// mfbo::circuit — circuit description.
//
// A Netlist is a flat list of devices over named nodes, the same mental
// model as a SPICE deck. Node "0" (or "gnd") is ground. Devices are added
// programmatically; the testbenches in mfbo::problems build their PA and
// charge-pump decks through this interface.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/devices.h"
#include "circuit/waveform.h"

namespace mfbo::circuit {

/// Node handle; kGround is the reference node (not an unknown).
using NodeId = int;
inline constexpr NodeId kGround = -1;

struct Resistor {
  std::string name;
  NodeId np, nn;
  double r;
};
struct Capacitor {
  std::string name;
  NodeId np, nn;
  double c;
};
struct Inductor {
  std::string name;
  NodeId np, nn;
  double l;
};
struct VSource {
  std::string name;
  NodeId np, nn;
  Waveform waveform;
  /// Small-signal stimulus for AC analysis (phasor magnitude / phase).
  double ac_magnitude = 0.0;
  double ac_phase = 0.0;
};
struct ISource {
  std::string name;
  NodeId np, nn;  ///< current flows np → nn through the source
  Waveform waveform;
  double ac_magnitude = 0.0;
  double ac_phase = 0.0;
};
struct Mosfet {
  std::string name;
  NodeId d, g, s;
  MosfetParams params;
};
struct Diode {
  std::string name;
  NodeId np, nn;  ///< anode, cathode
  DiodeParams params;
};
/// Voltage-controlled voltage source (SPICE E card):
/// v(np) − v(nn) = gain · (v(cp) − v(cn)). Adds one branch unknown.
struct Vcvs {
  std::string name;
  NodeId np, nn;  ///< output terminals
  NodeId cp, cn;  ///< controlling terminals
  double gain;
};
/// Voltage-controlled current source (SPICE G card): a current
/// gm · (v(cp) − v(cn)) flows np → nn through the source.
struct Vccs {
  std::string name;
  NodeId np, nn;
  NodeId cp, cn;
  double gm;
};

/// Flat device-list circuit description.
///
/// Invariant: all NodeIds stored in devices were produced by node() of this
/// same netlist (or are kGround).
class Netlist {
 public:
  /// Get-or-create the node named @p name ("0" and "gnd" map to ground).
  NodeId node(const std::string& name);
  /// Number of non-ground nodes.
  std::size_t numNodes() const { return names_.size(); }
  /// Name of node @p id (for diagnostics).
  const std::string& nodeName(NodeId id) const;

  /// The add* methods return the device's index. They throw
  /// std::invalid_argument on a node id from another netlist or an invalid
  /// value: R, C, L, MOSFET w/l/kp and diode is/n/vt must be finite and
  /// > 0; MOSFET vt/lambda and the E/G gains must be finite.
  std::size_t addResistor(std::string name, NodeId np, NodeId nn, double r);
  std::size_t addCapacitor(std::string name, NodeId np, NodeId nn, double c);
  std::size_t addInductor(std::string name, NodeId np, NodeId nn, double l);
  std::size_t addVSource(std::string name, NodeId np, NodeId nn, Waveform w);
  std::size_t addISource(std::string name, NodeId np, NodeId nn, Waveform w);
  std::size_t addMosfet(std::string name, NodeId d, NodeId g, NodeId s,
                        MosfetParams params);
  std::size_t addDiode(std::string name, NodeId np, NodeId nn,
                       DiodeParams params);
  std::size_t addVcvs(std::string name, NodeId np, NodeId nn, NodeId cp,
                      NodeId cn, double gain);
  std::size_t addVccs(std::string name, NodeId np, NodeId nn, NodeId cp,
                      NodeId cn, double gm);

  const std::vector<Resistor>& resistors() const { return resistors_; }
  const std::vector<Capacitor>& capacitors() const { return capacitors_; }
  const std::vector<Inductor>& inductors() const { return inductors_; }
  const std::vector<VSource>& vsources() const { return vsources_; }
  const std::vector<ISource>& isources() const { return isources_; }
  const std::vector<Mosfet>& mosfets() const { return mosfets_; }
  const std::vector<Diode>& diodes() const { return diodes_; }
  const std::vector<Vcvs>& vcvs() const { return vcvs_; }
  const std::vector<Vccs>& vccs() const { return vccs_; }

  std::vector<Mosfet>& mosfets() { return mosfets_; }
  std::vector<ISource>& isources() { return isources_; }
  std::vector<VSource>& vsources() { return vsources_; }

  /// Index of the named voltage source (throws if absent) — used to probe
  /// supply currents.
  std::size_t vsourceIndex(const std::string& name) const;
  /// Index of the named MOSFET (throws if absent).
  std::size_t mosfetIndex(const std::string& name) const;

 private:
  void validateNode(NodeId n) const;

  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> index_;
  std::vector<Resistor> resistors_;
  std::vector<Capacitor> capacitors_;
  std::vector<Inductor> inductors_;
  std::vector<VSource> vsources_;
  std::vector<ISource> isources_;
  std::vector<Mosfet> mosfets_;
  std::vector<Diode> diodes_;
  std::vector<Vcvs> vcvs_;
  std::vector<Vccs> vccs_;
};

}  // namespace mfbo::circuit
