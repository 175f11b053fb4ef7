// EffectPipeline — the composable non-ideality pipeline of the VDP datapath.
//
// An ordered set of EffectStage implementations transforms the precomputed
// photonics::MrBankTransferLut operating points before the tiled GEMM kernel
// runs:
//
//   thermal   TO-trim residual (TED collective solve or naive per-heater
//             overdrive) warming in with the heater RC constant, plus a slow
//             ambient wander — per-ring drift, time-stepped across layers;
//   fpv       post-calibration residual of the wafer-map resonance offsets —
//             per-ring drift, static;
//   noise     shot/Johnson/RIN at the balanced PD — relative partial-sum
//             perturbation, keyed on the operands (thread-count invariant);
//   crosstalk the pre-existing Eq. 8 inter-channel stage, now a pipeline
//             member instead of a hard-wired engine flag.
//
// The pipeline renders its stages into one photonics::VdpEffects view that
// both VdpSimulator::dot and BatchedVdpEngine::photonic_matmul pass to the
// shared chunk kernel, so scalar and batched execution remain bit-identical
// under any effect combination. With every stage off the view is null and
// the kernel takes its historical code path unchanged.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/vdp_simulator.hpp"
#include "photonics/bank_lut.hpp"

namespace xl::core {

/// Mutable state the stages render into on each rebuild.
struct EffectFrame {
  std::vector<double> ring_drift_nm;  ///< Accumulated per-ring drift.
  double noise_std = 0.0;             ///< Relative PD noise (1/sqrt(SNR)).
  bool crosstalk = true;              ///< Eq. 8 stage enabled.
};

/// One composable stage. apply() adds the stage's contribution to the frame;
/// advance() steps stage-internal time and reports whether the frame must be
/// re-rendered.
class EffectStage {
 public:
  virtual ~EffectStage() = default;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  virtual void apply(EffectFrame& frame) const = 0;
  /// Advance simulated time by dt_us; returns true when the stage's
  /// contribution changed (the pipeline then re-renders the frame).
  virtual bool advance(double dt_us) {
    (void)dt_us;
    return false;
  }
  /// Return to the t = 0 state.
  virtual void reset() {}
};

/// Telemetry of the thermal stage's boot-time tuning solve (the Fig. 4
/// cross-layer quantities), exposed for benches and reports.
struct ThermalTelemetry {
  double ted_mean_power_mw = 0.0;    ///< TED collective solve, per heater.
  double naive_mean_power_mw = 0.0;  ///< Naive per-heater drive, per heater.
  bool naive_feasible = true;        ///< False when overdrive clamped.
  double condition_number = 1.0;     ///< Coupling-matrix conditioning.
  double residual_rms_nm = 0.0;      ///< RMS trim residual of the active mode.
  double ted_residual_rms_nm = 0.0;    ///< Same, TED drive (both modes are
  double naive_residual_rms_nm = 0.0;  ///< solved at boot for reporting).
  double ambient_nm = 0.0;           ///< Current ambient excursion.
  double time_us = 0.0;              ///< Simulated time since boot.
};

class EffectPipeline {
 public:
  /// Builds the stage set selected by opts.effects for the bank described by
  /// opts (size, FSR, Q). Throws std::invalid_argument on invalid configs.
  explicit EffectPipeline(const VdpSimOptions& opts);
  ~EffectPipeline();
  EffectPipeline(EffectPipeline&&) noexcept;
  EffectPipeline& operator=(EffectPipeline&&) noexcept;

  /// Advance simulated time (thermal evolution). One accelerated layer
  /// advances by the configured thermal dt; no-op when nothing is
  /// time-dependent.
  void advance(double dt_us);

  /// Return every stage to its t = 0 state and re-render.
  void reset();

  /// The rendered operating-point perturbation for the shared chunk kernel;
  /// nullptr when no drift/noise stage is active (ideal fast path).
  [[nodiscard]] const photonics::VdpEffects* vdp_effects() const noexcept {
    return view_.active() ? &view_ : nullptr;
  }

  /// Effective Eq. 8 crosstalk flag (legacy knob AND crosstalk stage).
  [[nodiscard]] bool crosstalk() const noexcept { return frame_.crosstalk; }

  /// True when any drift/noise stage is enabled.
  [[nodiscard]] bool active() const noexcept { return !stages_.empty(); }

  /// Enabled stage names in pipeline order (includes "crosstalk" when on).
  [[nodiscard]] std::vector<std::string> stage_names() const;

  /// Thermal-stage telemetry; nullptr when the thermal stage is off.
  [[nodiscard]] const ThermalTelemetry* thermal_telemetry() const noexcept;

  [[nodiscard]] const EffectConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t bank_size() const noexcept {
    return frame_.ring_drift_nm.size();
  }
  [[nodiscard]] double time_us() const noexcept { return time_us_; }

  /// True when any stage evolves with simulated time (thermal wander); a
  /// static pipeline renders one frame at boot and never changes it, so its
  /// rendered frame is independent of time_us().
  [[nodiscard]] bool time_dependent() const noexcept { return time_dependent_; }

  /// Current per-ring drift (thermal + fpv), for tests and reports.
  [[nodiscard]] const std::vector<double>& ring_drift_nm() const noexcept {
    return frame_.ring_drift_nm;
  }
  [[nodiscard]] double noise_std() const noexcept { return frame_.noise_std; }

 private:
  /// Re-render every stage frame and combine (boot-time full render).
  void rebuild();
  /// Re-render one stage's cached frame from a zeroed state.
  void render_stage(std::size_t idx);
  /// Sum the cached stage frames into frame_ in stage order. Addition order
  /// matches the historical single-frame render exactly (each stage's apply()
  /// adds onto an exact-zero base either way), so the combined frame is
  /// bit-identical to a from-scratch rebuild.
  void combine();

  EffectConfig config_;
  EffectFrame frame_;
  photonics::VdpEffects view_;
  std::vector<std::unique_ptr<EffectStage>> stages_;
  // Incremental rendering: each stage renders into its own persistent frame;
  // advance() re-renders only the stages that reported change, and reset()
  // after an advance re-renders only the stages that changed since the last
  // reset (a reset with no intervening advance is a no-op). Static stages
  // (fpv, noise) are rendered exactly once, at construction.
  std::vector<EffectFrame> stage_frames_;
  std::vector<unsigned char> stage_dirty_since_reset_;
  bool advanced_since_reset_ = false;
  EffectStage* thermal_ = nullptr;  ///< Borrowed from stages_ (telemetry).
  bool time_dependent_ = false;
  double time_us_ = 0.0;
};

}  // namespace xl::core
