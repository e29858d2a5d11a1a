#include "circuit/measure.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <stdexcept>

#include "circuit/linearize.h"
#include "common/check.h"

namespace mfbo::circuit {

std::size_t windowStart(const TransientResult& result, double t_start) {
  for (std::size_t k = 0; k < result.time.size(); ++k)
    if (result.time[k] >= t_start - 1e-15) return k;
  return result.time.empty() ? 0 : result.time.size() - 1;
}

double timeAverage(const TransientResult& result, double t_start,
                   const std::function<double(std::size_t)>& f) {
  const std::size_t start = windowStart(result, t_start);
  if (start + 1 >= result.time.size())
    throw std::invalid_argument("timeAverage: window has fewer than 2 samples");
  double acc = 0.0;
  for (std::size_t k = start; k + 1 < result.time.size(); ++k) {
    const double dt = result.time[k + 1] - result.time[k];
    acc += 0.5 * (f(k) + f(k + 1)) * dt;
  }
  return acc / (result.time.back() - result.time[start]);
}

double averageSourcePower(const Simulator& sim, const TransientResult& result,
                          std::size_t vsrc_index, double t_start) {
  MFBO_CHECK(vsrc_index < sim.netlist().vsources().size(), "vsource index ",
             vsrc_index, " out of range [0,",
             sim.netlist().vsources().size(), ")");
  const VSource& src = sim.netlist().vsources()[vsrc_index];
  const std::size_t branch = sim.vsourceBranch(vsrc_index);
  return timeAverage(result, t_start, [&](std::size_t k) {
    // SPICE convention: branch current flows into the + terminal, so the
    // power delivered to the circuit is −v·i.
    const double v =
        result.nodeVoltage(k, src.np) - result.nodeVoltage(k, src.nn);
    return -v * result.value(k, branch);
  });
}

CurrentStats mosfetCurrentStats(const Simulator& sim,
                                const TransientResult& result,
                                std::size_t mos_index, double t_start) {
  MFBO_CHECK(mos_index < sim.netlist().mosfets().size(), "mosfet index ",
             mos_index, " out of range [0,", sim.netlist().mosfets().size(),
             ")");
  const Mosfet& m = sim.netlist().mosfets()[mos_index];
  const std::size_t start = windowStart(result, t_start);
  if (start >= result.time.size())
    throw std::invalid_argument("mosfetCurrentStats: empty window");
  const auto current = [&](std::size_t k) {
    return mosfetDrainCurrent(m, result.nodeVoltage(k, m.d),
                              result.nodeVoltage(k, m.g),
                              result.nodeVoltage(k, m.s));
  };
  CurrentStats stats;
  stats.min = std::numeric_limits<double>::max();
  stats.max = std::numeric_limits<double>::lowest();
  for (std::size_t k = start; k < result.time.size(); ++k) {
    const double i = current(k);
    stats.min = std::min(stats.min, i);
    stats.max = std::max(stats.max, i);
  }
  stats.avg = timeAverage(result, t_start, current);
  return stats;
}

double fundamentalLoadPower(const TransientResult& result, NodeId node,
                            double r_load, double f0, double t_start) {
  const auto harmonics = nodeHarmonics(result, node, f0, 1, t_start);
  const double v1 = harmonics[1].magnitude;
  return v1 * v1 / (2.0 * r_load);
}

std::vector<Harmonic> nodeHarmonics(const TransientResult& result, NodeId node,
                                    double f0, std::size_t n_harmonics,
                                    double t_start) {
  MFBO_CHECK(!result.time.empty(), "empty transient result");
  const std::size_t start = windowStart(result, t_start);
  std::vector<double> samples;
  samples.reserve(result.time.size() - start);
  for (std::size_t k = start; k < result.time.size(); ++k)
    samples.push_back(result.nodeVoltage(k, node));
  const double dt = result.time.size() > 1
                        ? result.time[1] - result.time[0]
                        : 0.0;
  return harmonicAnalysis(samples, dt, f0, n_harmonics);
}

}  // namespace mfbo::circuit
