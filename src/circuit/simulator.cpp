#include "circuit/simulator.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "circuit/linearize.h"
#include "common/check.h"
#include "common/spans.h"

namespace mfbo::circuit {

namespace {
/// Always-on conductance from every node to ground: keeps floating nodes
/// and cutoff devices from making the Jacobian singular.
constexpr double kGmin = 1e-12;

/// Newton gives up after kMaxNewtonIterations; it has converged once an
/// undamped step moves every node by at most kVAbstol + kVReltol·|v|.
constexpr std::size_t kMaxNewtonIterations = 100;
constexpr double kVAbstol = 1e-6;
constexpr double kVReltol = 1e-3;
/// Newton damping clamp per iteration.
constexpr double kMaxStepVoltage = 0.5;
/// DC source-stepping ladder size.
constexpr std::size_t kSourceSteps = 20;
/// Hard bound on node voltages during Newton — keeps a diverging iterate
/// from running away before damping can recover it. Must exceed any
/// legitimate node voltage of the circuit.
constexpr double kVClamp = 1000.0;

std::size_t idx(NodeId n) { return static_cast<std::size_t>(n); }

double nodeV(const Vector& x, NodeId n) {
  return n == kGround ? 0.0 : x[idx(n)];
}

bool isSquare(const Matrix& m, std::size_t n) {
  return m.rows() == n && m.cols() == n;
}

/// Conductance @p value between nodes a and b.
void addG(Matrix& m, NodeId a, NodeId b, double value) {
  if (a != kGround) m(idx(a), idx(a)) += value;
  if (b != kGround) m(idx(b), idx(b)) += value;
  if (a != kGround && b != kGround) {
    m(idx(a), idx(b)) -= value;
    m(idx(b), idx(a)) -= value;
  }
}

/// m(row, col) += value; a ground column is not an unknown.
void addEntry(Matrix& m, std::size_t row, NodeId col, double value) {
  if (col != kGround) m(row, idx(col)) += value;
}

/// Inject current @p value INTO node a and OUT of node b.
void addCurrent(Vector& rhs, NodeId a, NodeId b, double value) {
  if (a != kGround) rhs[idx(a)] += value;
  if (b != kGround) rhs[idx(b)] -= value;
}

/// Branch unknown @p br flowing np → nn: its current enters the KCL rows
/// and its row reads v_np − v_nn.
void addBranch(Matrix& g, std::size_t br, NodeId np, NodeId nn) {
  if (np != kGround) {
    g(idx(np), br) += 1.0;
    g(br, idx(np)) += 1.0;
  }
  if (nn != kGround) {
    g(idx(nn), br) -= 1.0;
    g(br, idx(nn)) -= 1.0;
  }
}

/// Append the recorded unknowns of @p x at time @p t.
void record(TransientResult& result, double t, const Vector& x) {
  result.time.push_back(t);
  for (const std::size_t u : result.unknowns) result.values.push_back(x[u]);
}

}  // namespace

double TransientResult::value(std::size_t k, std::size_t unknown) const {
  const auto it = std::find(unknowns.begin(), unknowns.end(), unknown);
  MFBO_CHECK(it != unknowns.end(), "unknown ", unknown,
             " was not recorded by this transient");
  MFBO_CHECK(k < time.size(), "step ", k, " out of range [0,", time.size(),
             ")");
  return values[k * unknowns.size() +
                static_cast<std::size_t>(it - unknowns.begin())];
}

Simulator::Simulator(const Netlist& netlist)
    : netlist_(netlist),
      n_nodes_(netlist.numNodes()),
      n_branches_(netlist.vsources().size() + netlist.inductors().size() +
                  netlist.vcvs().size()),
      vsource_offset_(n_nodes_),
      inductor_offset_(n_nodes_ + netlist.vsources().size()),
      vcvs_offset_(inductor_offset_ + netlist.inductors().size()),
      cap_current_(netlist.capacitors().size(), 0.0),
      lin_(dim(), dim()),
      rhs_base_(dim()),
      sys_(dim(), dim()),
      rhs_(dim()),
      x_new_(dim()),
      trial_(dim()) {
  if (n_nodes_ == 0)
    throw std::invalid_argument("Simulator: netlist has no nodes");
}

void Simulator::beginAnalysis() {
  lin_valid_ = false;
  counts_ = Counts{};
}

void Simulator::endAnalysis(bool converged) {
  const std::pair<const char*, std::uint64_t> counts[] = {
      {"circuit.transient_steps", counts_.transient_steps},
      {"circuit.newton_iterations", counts_.newton_iterations},
      {"circuit.step_subdivisions", counts_.step_subdivisions},
      {"circuit.dc_gmin_stepping", counts_.dc_gmin_stepping},
      {"circuit.dc_source_stepping", counts_.dc_source_stepping},
      {"circuit.nonconverged", converged ? 0u : 1u},
  };
  for (const auto& [name, n] : counts)
    if (n > 0) spans::addCounter(name, n);
}

void Simulator::stampLinear(Matrix& g, Matrix* reactive, double dt,
                            double omega) const {
  MFBO_DCHECK(isSquare(g, dim()), "matrix size mismatch");
  MFBO_DCHECK(!reactive || isSquare(*reactive, dim()), "reactive mismatch");
  const auto coefficient = [&](double value) {
    return dt > 0.0 ? 2.0 * value / dt : omega * value;
  };

  for (std::size_t i = 0; i < n_nodes_; ++i)
    g(i, i) += kGmin + extra_gmin_;

  for (const Resistor& r : netlist_.resistors()) addG(g, r.np, r.nn, 1.0 / r.r);

  // Capacitors: open in DC.
  if (reactive)
    for (const Capacitor& c : netlist_.capacitors())
      addG(*reactive, c.np, c.nn, coefficient(c.c));

  // Voltage sources: branch current flows np → nn *through the source*
  // (SPICE sign: positive into the + terminal).
  for (std::size_t k = 0; k < netlist_.vsources().size(); ++k) {
    const VSource& s = netlist_.vsources()[k];
    addBranch(g, vsource_offset_ + k, s.np, s.nn);
  }

  // Inductors: short in DC; transient row v_{n+1} − (2L/dt)·i_{n+1} = …,
  // AC row v − jωL·i = 0.
  for (std::size_t k = 0; k < netlist_.inductors().size(); ++k) {
    const Inductor& ind = netlist_.inductors()[k];
    const std::size_t br = inductor_offset_ + k;
    addBranch(g, br, ind.np, ind.nn);
    if (reactive) (*reactive)(br, br) -= coefficient(ind.l);
  }

  // VCVS row: v_np − v_nn − gain·(v_cp − v_cn) = 0.
  for (std::size_t k = 0; k < netlist_.vcvs().size(); ++k) {
    const Vcvs& e = netlist_.vcvs()[k];
    const std::size_t br = vcvs_offset_ + k;
    addBranch(g, br, e.np, e.nn);
    addEntry(g, br, e.cp, -e.gain);
    addEntry(g, br, e.cn, e.gain);
  }

  // VCCS: current gm·(v_cp − v_cn) leaves np and enters nn.
  for (const Vccs& gsrc : netlist_.vccs()) {
    if (gsrc.np != kGround) {
      addEntry(g, idx(gsrc.np), gsrc.cp, gsrc.gm);
      addEntry(g, idx(gsrc.np), gsrc.cn, -gsrc.gm);
    }
    if (gsrc.nn != kGround) {
      addEntry(g, idx(gsrc.nn), gsrc.cp, -gsrc.gm);
      addEntry(g, idx(gsrc.nn), gsrc.cn, gsrc.gm);
    }
  }
}

void Simulator::stampNonlinear(Matrix& g, Vector* rhs, const Vector& x) const {
  MFBO_DCHECK(isSquare(g, dim()), "matrix size mismatch");
  MFBO_DCHECK(x.size() == dim(), "state size ", x.size(), " != ", dim());
  MFBO_DCHECK(!rhs || rhs->size() == dim(), "rhs size mismatch");

  for (const Mosfet& m : netlist_.mosfets()) {
    const MosfetSmallSignal ss =
        mosfetSmallSignal(m, nodeV(x, m.d), nodeV(x, m.g), nodeV(x, m.s));
    // ∂i/∂(real voltages): the polarity factors cancel, so gm/gds stamp
    // with their NMOS-normalized (positive) values against the effective
    // terminals.
    const NodeId d = ss.d_eff, s = ss.s_eff, gn = ss.g;
    // VCCS gm·(v_g − v_s): current d → s.
    if (d != kGround) {
      addEntry(g, idx(d), gn, ss.gm);
      addEntry(g, idx(d), s, -ss.gm);
    }
    if (s != kGround) {
      addEntry(g, idx(s), gn, -ss.gm);
      addEntry(g, idx(s), s, ss.gm);
    }
    addG(g, d, s, ss.gds);
    if (rhs) {
      // Norton current ieq flowing d → s inside the device.
      const double vgs_real = nodeV(x, gn) - nodeV(x, s);
      const double vds_real = nodeV(x, d) - nodeV(x, s);
      const double ieq = ss.i_deff - ss.gm * vgs_real - ss.gds * vds_real;
      addCurrent(*rhs, s, d, ieq);
    }
  }

  for (const Diode& dd : netlist_.diodes()) {
    const double v = nodeV(x, dd.np) - nodeV(x, dd.nn);
    const DiodeState st = diodeEval(dd.params, v);
    addG(g, dd.np, dd.nn, st.gd);
    if (rhs) addCurrent(*rhs, dd.nn, dd.np, st.id - st.gd * v);
  }
}

const Matrix& Simulator::linearStamps(double dt) {
  if (!lin_valid_ || lin_dt_ != dt || lin_gmin_ != extra_gmin_) {
    std::fill_n(lin_.data(), dim() * dim(), 0.0);
    stampLinear(lin_, dt > 0.0 ? &lin_ : nullptr, dt, 0.0);
    lin_dt_ = dt;
    lin_gmin_ = extra_gmin_;
    lin_valid_ = true;
  }
  return lin_;
}

void Simulator::buildRhsBase(double t, double dt, const Vector* prev,
                             double source_scale) {
  MFBO_DCHECK(!prev || prev->size() == dim(), "prev-state size mismatch");
  Vector& rhs = rhs_base_;
  std::fill(rhs.begin(), rhs.end(), 0.0);
  const bool transient = dt > 0.0;

  if (transient) {
    // i_{n+1} = geq·(v_{n+1} − v_n) − i_n  ⇒ Norton J = geq·v_n + i_n.
    const auto& caps = netlist_.capacitors();
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const Capacitor& c = caps[i];
      const double geq = 2.0 * c.c / dt;
      const double v_prev =
          prev ? nodeV(*prev, c.np) - nodeV(*prev, c.nn) : 0.0;
      addCurrent(rhs, c.np, c.nn, geq * v_prev + cap_current_[i]);
    }
  }

  // Independent current sources (current flows np → nn through the source).
  for (const ISource& s : netlist_.isources())
    addCurrent(rhs, s.nn, s.np, source_scale * s.waveform.at(t));

  for (std::size_t k = 0; k < netlist_.vsources().size(); ++k) {
    const Waveform& w = netlist_.vsources()[k].waveform;
    rhs[vsource_offset_ + k] =
        source_scale * (transient ? w.at(t) : w.dcValue());
  }

  // Inductor rows: DC rhs stays 0; transient
  // v_{n+1} − (2L/dt)·i_{n+1} = −v_n − (2L/dt)·i_n.
  if (transient) {
    for (std::size_t k = 0; k < netlist_.inductors().size(); ++k) {
      const Inductor& ind = netlist_.inductors()[k];
      const std::size_t br = inductor_offset_ + k;
      const double zeq = 2.0 * ind.l / dt;
      const double v_prev =
          prev ? nodeV(*prev, ind.np) - nodeV(*prev, ind.nn) : 0.0;
      const double i_prev = prev ? (*prev)[br] : 0.0;
      rhs[br] = -v_prev - zeq * i_prev;
    }
  }
}

bool Simulator::newtonSolve(Vector& x, double t, double dt, const Vector* prev,
                            double source_scale) {
  MFBO_DCHECK(x.size() == dim(), "state size ", x.size(), " != ", dim());
  const Matrix& lin = linearStamps(dt);
  buildRhsBase(t, dt, prev, source_scale);
  for (std::size_t iter = 0; iter < kMaxNewtonIterations; ++iter) {
    ++counts_.newton_iterations;
    // Linear stamps, then the history and source rhs, then the nonlinear
    // stamps on top: every entry sums its terms in the same order as a
    // system assembled from scratch.
    sys_ = lin;
    rhs_ = rhs_base_;
    stampNonlinear(sys_, &rhs_, x);
    try {
      lu_.refactor(sys_);
    } catch (const std::runtime_error&) {
      return false;
    }
    lu_.solveInto(rhs_, x_new_);
    if (!x_new_.allFinite()) return false;

    // Damped update: clamp the largest node-voltage change.
    double max_dv = 0.0;
    for (std::size_t i = 0; i < n_nodes_; ++i)
      max_dv = std::max(max_dv, std::abs(x_new_[i] - x[i]));
    const double scale =
        max_dv > kMaxStepVoltage ? kMaxStepVoltage / max_dv : 1.0;
    bool converged = true;
    for (std::size_t i = 0; i < dim(); ++i) {
      const double dx = scale * (x_new_[i] - x[i]);
      x[i] += dx;
      if (i < n_nodes_)
        x[i] = std::clamp(x[i], -kVClamp, kVClamp);
      if (i < n_nodes_ && std::abs(dx) > kVAbstol + kVReltol * std::abs(x[i]))
        converged = false;
    }
    if (converged && scale == 1.0) return true;
  }
  return false;
}

DcResult Simulator::dcOperatingPoint(const Vector* initial_guess) {
  MFBO_CHECK(!initial_guess || initial_guess->size() == dim(),
             "initial guess size ", initial_guess ? initial_guess->size() : 0,
             " != system dimension ", dim());
  beginAnalysis();
  DcResult result = dcSolve(initial_guess);
  endAnalysis(result.converged);
  return result;
}

DcResult Simulator::dcSolve(const Vector* initial_guess) {
  MFBO_DCHECK(!initial_guess || initial_guess->size() == dim(),
              "initial guess size mismatch");
  DcResult result;
  extra_gmin_ = 0.0;

  // 1. Plain Newton, warm-started when a guess is available.
  Vector x = initial_guess ? *initial_guess : Vector(dim());
  if (newtonSolve(x, 0.0, 0.0, nullptr, 1.0)) {
    result.solution = std::move(x);
    result.converged = true;
    return result;
  }

  // 2. Gmin stepping: solve with a strong conductance to ground everywhere,
  // then relax it decade by decade, warm-starting each level.
  ++counts_.dc_gmin_stepping;
  x = Vector(dim());
  bool gmin_ok = true;
  for (double gmin : {1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10, 0.0}) {
    extra_gmin_ = gmin;
    if (!newtonSolve(x, 0.0, 0.0, nullptr, 1.0)) {
      gmin_ok = false;
      break;
    }
  }
  extra_gmin_ = 0.0;
  if (gmin_ok) {
    result.solution = std::move(x);
    result.converged = true;
    return result;
  }

  // 3. Source stepping: ramp all independent sources up from zero.
  ++counts_.dc_source_stepping;
  x = Vector(dim());
  for (std::size_t s = 1; s <= kSourceSteps; ++s) {
    const double scale =
        static_cast<double>(s) / static_cast<double>(kSourceSteps);
    if (!newtonSolve(x, 0.0, 0.0, nullptr, scale)) {
      result.solution = std::move(x);
      return result;  // converged stays false
    }
  }
  result.solution = std::move(x);
  result.converged = true;
  return result;
}

bool Simulator::advance(Vector& state, double t_from, double dt, int depth) {
  trial_ = state;
  if (newtonSolve(trial_, t_from + dt, dt, &state, 1.0)) {
    const auto& caps = netlist_.capacitors();
    for (std::size_t i = 0; i < caps.size(); ++i) {
      const Capacitor& c = caps[i];
      const double geq = 2.0 * c.c / dt;
      const double dv = (nodeV(trial_, c.np) - nodeV(trial_, c.nn)) -
                        (nodeV(state, c.np) - nodeV(state, c.nn));
      cap_current_[i] = geq * dv - cap_current_[i];
    }
    std::swap(state, trial_);
    return true;
  }
  if (depth >= 3) return false;
  // The failed trial is thrown away, so the substeps reuse its buffer.
  ++counts_.step_subdivisions;
  const double sub = dt / 4.0;
  for (int k = 0; k < 4; ++k) {
    if (!advance(state, t_from + static_cast<double>(k) * sub, sub, depth + 1))
      return false;
  }
  return true;
}

TransientResult Simulator::transient(double t_stop, double dt,
                                     std::vector<std::size_t> unknowns) {
  if (!(dt > 0.0) || !(t_stop > 0.0))
    throw std::invalid_argument("Simulator::transient: bad time parameters");
  for (const std::size_t u : unknowns)
    MFBO_CHECK(u < dim(), "unknown ", u, " out of range [0,", dim(), ")");
  if (unknowns.empty()) {
    unknowns.resize(dim());
    std::iota(unknowns.begin(), unknowns.end(), std::size_t{0});
  }

  beginAnalysis();
  TransientResult result;
  result.unknowns = std::move(unknowns);
  DcResult dc = dcSolve(nullptr);
  if (!dc.converged) {
    endAnalysis(false);
    return result;  // converged stays false
  }

  const std::size_t n_steps =
      static_cast<std::size_t>(std::ceil(t_stop / dt - 1e-9));
  result.time.reserve(n_steps + 1);
  result.values.reserve((n_steps + 1) * result.unknowns.size());
  std::fill(cap_current_.begin(), cap_current_.end(), 0.0);
  Vector x = std::move(dc.solution);
  record(result, 0.0, x);
  for (std::size_t step = 1; step <= n_steps; ++step) {
    const double t_from = static_cast<double>(step - 1) * dt;
    if (!advance(x, t_from, dt, 0)) {
      endAnalysis(false);
      return result;
    }
    ++counts_.transient_steps;
    record(result, static_cast<double>(step) * dt, x);
  }
  result.converged = true;
  endAnalysis(true);
  return result;
}

double Simulator::vsourceCurrent(const Vector& solution,
                                 std::size_t vsrc_index) const {
  MFBO_CHECK(vsrc_index < netlist_.vsources().size(), "vsource index ",
             vsrc_index, " out of range");
  return solution[vsource_offset_ + vsrc_index];
}

double Simulator::mosfetCurrent(const Vector& solution,
                                std::size_t mos_index) const {
  MFBO_CHECK(mos_index < netlist_.mosfets().size(), "mosfet index ",
             mos_index, " out of range");
  const Mosfet& m = netlist_.mosfets()[mos_index];
  return mosfetDrainCurrent(m, nodeV(solution, m.d), nodeV(solution, m.g),
                            nodeV(solution, m.s));
}

}  // namespace mfbo::circuit
