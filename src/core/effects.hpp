// Configuration of the composable non-ideality pipeline.
//
// CrossLight's cross-layer claim is that device-level thermal drift,
// fabrication process variation (FPV), and receiver noise co-determine the
// achievable resolution and accuracy of the photonic datapath. EffectConfig
// selects which of those models run as stages of the shared VDP kernel
// (core/effect_pipeline.hpp): each stage is independently switchable, seeded
// deterministically, and applies to the scalar and batched engines alike.
//
// Stage order (fixed): thermal -> fpv -> noise -> crosstalk. Thermal and FPV
// accumulate per-ring resonance drifts on the precomputed
// photonics::MrBankTransferLut operating points; noise perturbs every
// balanced-PD partial sum; crosstalk is the (pre-existing) Eq. 8
// inter-channel stage, now routed through the same pipeline.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "photonics/fpv.hpp"
#include "photonics/noise.hpp"
#include "thermal/crosstalk_matrix.hpp"
#include "thermal/transient.hpp"

namespace xl::core {

/// Thermal detuning stage: the boot-time TO trim (TED collective solve, or
/// the naive per-heater drive of prior accelerators) leaves a per-ring phase
/// residual that warms in with the heater RC constant; on top, a slow ambient
/// excursion wanders the whole bank. Time advances once per accelerated layer
/// (PhotonicInferenceEngine) or explicitly via EffectPipeline::advance.
struct ThermalEffectConfig {
  double pitch_um = 5.0;        ///< Ring spacing (the paper's Fig. 4 optimum).
  bool use_ted = true;          ///< TED collective trim vs. naive per-heater.
  double ambient_drift_nm = 0.05;   ///< Peak ambient resonance excursion.
  double ambient_period_us = 400.0; ///< Period of the ambient wander.
  double dt_us = 1.0;           ///< Time step per accelerated layer.
  bool coupling_from_solver = false;  ///< Probe the FD heat solver for K
                                      ///< (slow; default: calibrated kernel).
  thermal::ThermalRcParams rc;  ///< Heater warm-up transient.
  thermal::CouplingModelConfig coupling;  ///< Analytic crosstalk kernel.
};

/// FPV stage: per-ring resonance offsets from the spatially correlated wafer
/// map. The raw wafer drift (up to 7.1 / 2.1 nm, Section IV-A) is trimmed at
/// boot by the TO calibration; what the datapath sees at runtime is the
/// un-trimmed residual fraction (trim DAC quantization + sensor error).
struct FpvEffectConfig {
  photonics::MrDesignKind design = photonics::MrDesignKind::kOptimized;
  double pitch_um = 5.0;              ///< Device pitch on the wafer map.
  double trim_residual_fraction = 0.02;  ///< Post-calibration residual.
  double x0_um = 0.0;                 ///< Chip site of the bank.
  double y0_um = 0.0;
  photonics::FpvModelConfig model;    ///< Wafer-map statistics (seed is
                                      ///< overridden by EffectConfig::seed).
};

/// Receiver-noise stage: shot + Johnson + RIN noise at the balanced
/// photodetector, expressed as the relative per-channel noise 1/sqrt(SNR) at
/// the configured received optical power and injected into every partial sum.
struct NoiseEffectConfig {
  photonics::ReceiverParams receiver;  ///< PD/TIA noise parameters.
  double optical_power_mw = 0.1;       ///< Per-channel power at the PD.
};

/// Master switchboard. All stages off (the default) is bit-identical to the
/// pre-pipeline datapath; `crosstalk` mirrors the legacy
/// VdpSimOptions::model_crosstalk knob as a pipeline stage (both must be on
/// for Eq. 8 crosstalk to run).
struct EffectConfig {
  bool thermal = false;
  bool fpv = false;
  bool noise = false;
  bool crosstalk = true;
  std::uint64_t seed = 0xC705511D47ULL;  ///< Root seed for every stage.

  ThermalEffectConfig thermal_stage;
  FpvEffectConfig fpv_stage;
  NoiseEffectConfig noise_stage;

  /// True when any operating-point or noise stage is enabled (crosstalk
  /// alone is the legacy ideal-datapath configuration).
  [[nodiscard]] bool any_perturbation() const noexcept {
    return thermal || fpv || noise;
  }

  /// Enabled stages as "thermal,fpv,noise,crosstalk" (or "none").
  [[nodiscard]] std::string summary() const;

  /// Parse the CLI format: a comma-separated subset of
  /// {thermal, fpv, noise, crosstalk, nocrosstalk, all, none, ideal}.
  /// "none" keeps the default ideal datapath (crosstalk on, stages off);
  /// "ideal" additionally disables crosstalk. Throws std::invalid_argument
  /// on unknown tokens.
  [[nodiscard]] static EffectConfig parse(std::string_view csv);

  /// Throws std::invalid_argument on non-physical stage parameters.
  void validate() const;
};

}  // namespace xl::core
