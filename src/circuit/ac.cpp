#include "circuit/ac.h"

#include <cmath>
#include <numbers>

#include "common/check.h"
#include "linalg/matrix.h"

namespace mfbo::circuit {

double AcResult::magnitudeDb(std::size_t k, NodeId node) const {
  return 20.0 * std::log10(std::max(std::abs(nodePhasor(k, node)), 1e-300));
}

double AcResult::phaseDeg(std::size_t k, NodeId node) const {
  return std::arg(nodePhasor(k, node)) * 180.0 / std::numbers::pi;
}

AcResult acAnalysis(Simulator& sim, double f_start, double f_stop,
                    std::size_t points_per_decade) {
  MFBO_CHECK(f_start > 0.0 && f_stop > f_start, "bad sweep range [", f_start,
             ", ", f_stop, ") Hz");
  MFBO_CHECK(points_per_decade >= 1, "points_per_decade must be >= 1");

  AcResult result;
  const DcResult dc = sim.dcOperatingPoint();
  if (!dc.converged) return result;  // converged stays false

  const double decades = std::log10(f_stop / f_start);
  const std::size_t n_points = static_cast<std::size_t>(
      std::ceil(decades * static_cast<double>(points_per_decade))) + 1;

  const std::size_t n = sim.dim();
  // Stimulus phasors as the real embedding [Re b; Im b]: voltage sources
  // drive their branch rows, current sources their nodes; every other
  // source is quiet.
  linalg::Vector rhs(2 * n);
  const Netlist& net = sim.netlist();
  for (std::size_t k = 0; k < net.vsources().size(); ++k) {
    const VSource& s = net.vsources()[k];
    const std::size_t br = sim.vsourceBranch(k);
    rhs[br] = s.ac_magnitude * std::cos(s.ac_phase);
    rhs[n + br] = s.ac_magnitude * std::sin(s.ac_phase);
  }
  for (const ISource& s : net.isources()) {
    const double re = s.ac_magnitude * std::cos(s.ac_phase);
    const double im = s.ac_magnitude * std::sin(s.ac_phase);
    if (s.nn != kGround) {
      rhs[static_cast<std::size_t>(s.nn)] += re;
      rhs[n + static_cast<std::size_t>(s.nn)] += im;
    }
    if (s.np != kGround) {
      rhs[static_cast<std::size_t>(s.np)] -= re;
      rhs[n + static_cast<std::size_t>(s.np)] -= im;
    }
  }

  for (std::size_t k = 0; k < n_points; ++k) {
    const double f =
        f_start * std::pow(10.0, decades * static_cast<double>(k) /
                                     static_cast<double>(n_points - 1));
    const double omega = 2.0 * std::numbers::pi * f;

    // G and the susceptance B, linearized at the operating point.
    linalg::Matrix g(n, n), b(n, n);
    sim.stampLinear(g, &b, 0.0, omega);
    sim.stampNonlinear(g, nullptr, dc.solution);

    // Real embedding: [G −B; B G]·[xr; xi] = [br; bi].
    linalg::Matrix big(2 * n, 2 * n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) {
        big(r, c) = g(r, c);
        big(r, n + c) = -b(r, c);
        big(n + r, c) = b(r, c);
        big(n + r, n + c) = g(r, c);
      }
    linalg::Vector x;
    try {
      x = linalg::luSolve(std::move(big), rhs);
    } catch (const std::runtime_error&) {
      return result;  // converged stays false
    }

    std::vector<std::complex<double>> phasors(n);
    for (std::size_t i = 0; i < n; ++i) phasors[i] = {x[i], x[n + i]};
    result.freq.push_back(f);
    result.solution.push_back(std::move(phasors));
  }
  result.converged = true;
  return result;
}

double unityGainFrequency(const AcResult& result, NodeId node) {
  for (std::size_t k = 1; k < result.freq.size(); ++k) {
    const double m0 = result.magnitudeDb(k - 1, node);
    const double m1 = result.magnitudeDb(k, node);
    if (m0 >= 0.0 && m1 < 0.0) {
      // Log-linear interpolation of the 0 dB crossing.
      const double t = m0 / (m0 - m1);
      return result.freq[k - 1] *
             std::pow(result.freq[k] / result.freq[k - 1], t);
    }
  }
  return 0.0;
}

double phaseMarginDeg(const AcResult& result, NodeId node, bool invert) {
  const double fu = unityGainFrequency(result, node);
  if (fu <= 0.0) return 0.0;
  // Interpolate the phase at fu between the bracketing sweep points.
  for (std::size_t k = 1; k < result.freq.size(); ++k) {
    if (result.freq[k] >= fu) {
      auto ph = [&](std::size_t i) {
        const std::complex<double> h = result.nodePhasor(i, node);
        return std::arg(invert ? -h : h) * 180.0 / std::numbers::pi;
      };
      const double p0 = ph(k - 1);
      double p1 = ph(k);
      // Unwrap a single 360° jump between adjacent points.
      if (p1 - p0 > 180.0) p1 -= 360.0;
      if (p0 - p1 > 180.0) p1 += 360.0;
      const double t =
          std::log(fu / result.freq[k - 1]) /
          std::log(result.freq[k] / result.freq[k - 1]);
      const double phase = p0 + t * (p1 - p0);
      return 180.0 + phase;
    }
  }
  return 0.0;
}

}  // namespace mfbo::circuit
