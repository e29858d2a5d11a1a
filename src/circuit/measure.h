// mfbo::circuit — post-processing measurements on transient results.
//
// These are the SPICE ".measure" equivalents the testbenches need: average
// source power, fundamental output power, efficiency, and windowed
// device-current statistics.
#pragma once

#include <functional>

#include "circuit/fft.h"
#include "circuit/simulator.h"

namespace mfbo::circuit {

/// Index of the first sample with time ≥ t_start (clamped to the last).
std::size_t windowStart(const TransientResult& result, double t_start);

/// Time-average of f(step) over samples with time ≥ t_start (trapezoid).
double timeAverage(const TransientResult& result, double t_start,
                   const std::function<double(std::size_t)>& f);

/// Average power DELIVERED by voltage source @p vsrc_index over the window
/// (positive when the source supplies energy): avg(−v·i) with the SPICE
/// current sign convention. Reads the source's terminal voltages and its
/// branch current (Simulator::vsourceBranch), which must be recorded.
double averageSourcePower(const Simulator& sim, const TransientResult& result,
                          std::size_t vsrc_index, double t_start);

/// min / average / max of a device current over the window; the device's
/// terminal voltages must be recorded.
struct CurrentStats {
  double min = 0.0;
  double avg = 0.0;
  double max = 0.0;
};
CurrentStats mosfetCurrentStats(const Simulator& sim,
                                const TransientResult& result,
                                std::size_t mos_index, double t_start);

/// Power dissipated in resistor-to-ground load at the fundamental:
/// P = |V₁|²/(2R), from a coherent harmonic analysis of the node waveform
/// after @p t_start.
double fundamentalLoadPower(const TransientResult& result, NodeId node,
                            double r_load, double f0, double t_start);

/// Harmonics of a node voltage over the post-t_start window.
std::vector<Harmonic> nodeHarmonics(const TransientResult& result, NodeId node,
                                    double f0, std::size_t n_harmonics,
                                    double t_start);

}  // namespace mfbo::circuit
