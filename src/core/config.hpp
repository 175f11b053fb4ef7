// CrossLight architecture configuration (Section IV-C) and the four
// evaluation variants (Section V-D).
#pragma once

#include <cstdint>
#include <string>

#include "photonics/device_params.hpp"

namespace xl::core {

/// The four architecture variants compared in Figs. 7-8 / Table III.
enum class Variant : std::uint8_t {
  kBase,     ///< Conventional MRs (7.1 nm FPV drift) + naive TO tuning.
  kBaseTed,  ///< Conventional MRs + hybrid TED tuning (5 um pitch).
  kOpt,      ///< Optimized MRs (2.1 nm drift) + naive TO tuning.
  kOptTed,   ///< Optimized MRs + hybrid TED tuning — the flagship.
};

[[nodiscard]] std::string variant_name(Variant v);
[[nodiscard]] bool variant_uses_ted(Variant v) noexcept;
[[nodiscard]] bool variant_uses_optimized_mr(Variant v) noexcept;

/// Architecture-level parameters. The tuple (N, K, n, m) follows the paper's
/// notation: n CONV VDP units of size N, m FC VDP units of size K.
struct ArchitectureConfig {
  std::size_t conv_unit_size = 20;  ///< N: dot-product length per CONV unit pass.
  std::size_t fc_unit_size = 150;   ///< K: dot-product length per FC unit pass.
  std::size_t conv_units = 100;     ///< n.
  std::size_t fc_units = 60;        ///< m.

  /// MRs per bank per arm (paper: max 15, i.e. 30 MRs/arm across the
  /// activation and weight banks).
  std::size_t mrs_per_bank = 15;

  Variant variant = Variant::kOptTed;

  /// Adjacent-MR pitch. TED variants sit at the paper's Fig. 4 optimum (5 um);
  /// non-TED variants need crosstalk guard spacing (Section IV-A: 120 um).
  double pitch_ted_um = 5.0;
  double pitch_guard_um = 120.0;

  /// Weight/activation resolution used by the datapath (Section V-B: 16).
  int resolution_bits = 16;

  xl::photonics::DeviceParams devices;

  [[nodiscard]] double mr_pitch_um() const noexcept {
    return variant_uses_ted(variant) ? pitch_ted_um : pitch_guard_um;
  }
  [[nodiscard]] double fpv_drift_nm() const noexcept {
    return variant_uses_optimized_mr(variant) ? devices.fpv_drift_optimized_nm
                                              : devices.fpv_drift_conventional_nm;
  }

  /// Arms needed by one VDP unit of the given size (ceil(size / bank)).
  [[nodiscard]] std::size_t arms_per_unit(std::size_t unit_size) const noexcept;
  /// MR count of one VDP unit (2 banks per arm: activations + weights).
  [[nodiscard]] std::size_t mrs_per_unit(std::size_t unit_size) const noexcept;
  /// Total MRs across both unit pools.
  [[nodiscard]] std::size_t total_mrs() const noexcept;
  /// Total arms (= partial-sum photodetectors) across both pools.
  [[nodiscard]] std::size_t total_arms() const noexcept;

  /// Throws std::invalid_argument on inconsistent settings.
  void validate() const;
};

/// The best (N, K, n, m) = (20, 150, 100, 60) configuration from the Fig. 6
/// design-space exploration, as Cross_opt_TED.
[[nodiscard]] ArchitectureConfig best_config();

/// Same architecture tuple under a different variant.
[[nodiscard]] ArchitectureConfig variant_config(Variant v);

}  // namespace xl::core
