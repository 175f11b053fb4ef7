// Thermal/phase crosstalk coupling matrix of an MR bank.
//
// Entry K(i,j) is the phase shift induced on ring i per unit heater power on
// ring j. The diagonal is the direct actuation efficiency; off-diagonals are
// the parasitic crosstalk that Fig. 4 plots against ring pitch. Two builders
// are provided:
//   * from_heat_solver  — samples the FD solver's influence kernel (the
//                         faithful "Lumerical HEAT substitute" path), and
//   * exponential       — the analytic exp(-d/d0) kernel observed in
//                         De et al., IEEE Access 2020 (paper ref [24]), the
//                         fast path for DSE.
#pragma once

#include <vector>

#include "numerics/matrix.hpp"
#include "thermal/heat_solver.hpp"

namespace xl::thermal {

struct CouplingModelConfig {
  /// Phase shift per mW of heater power applied directly to a ring.
  /// 27.5 mW moves the resonance one FSR = 2*pi of round-trip phase, so the
  /// self-coupling efficiency is 2*pi / 27.5 rad/mW (Table II, [17]).
  double self_phase_rad_per_mw = 2.0 * 3.14159265358979323846 / 27.5;
  /// Decay length of the exponential crosstalk kernel, um: a fixed
  /// device-level constant (calibrate_kernel fits one to the FD solver
  /// instead).
  double decay_length_um = 2.4;
  /// Crosstalk ratio extrapolated at zero separation (< 1: heaters never
  /// couple perfectly into a neighbouring ring).
  double contact_ratio = 0.85;
};

/// Phase-crosstalk ratio between rings separated by `d_um` under the
/// analytic exponential kernel.
[[nodiscard]] double exponential_crosstalk_ratio(double d_um,
                                                 const CouplingModelConfig& cfg = {});

/// Build the symmetric coupling matrix for `count` rings at uniform
/// `pitch_um` using the analytic kernel.
[[nodiscard]] xl::numerics::Matrix coupling_matrix_exponential(
    std::size_t count, double pitch_um, const CouplingModelConfig& cfg = {});

/// Build the coupling matrix by probing the FD heat solver: ring j gets a
/// unit heater; the induced temperature (hence phase) at every ring i fills
/// column j. Exact superposition holds because the PDE is linear.
[[nodiscard]] xl::numerics::Matrix coupling_matrix_from_solver(
    const HeatSolver& solver, std::size_t count, double pitch_um,
    const CouplingModelConfig& cfg = {});

/// Calibrate the analytic kernel's decay length against the FD solver by a
/// log-linear fit of influence ratios over [2, 20] um. Returns the fitted
/// config (self efficiency and contact ratio are preserved).
[[nodiscard]] CouplingModelConfig calibrate_kernel(const HeatSolver& solver,
                                                   CouplingModelConfig base = {});

}  // namespace xl::thermal
