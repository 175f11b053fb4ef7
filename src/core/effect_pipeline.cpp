#include "core/effect_pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "numerics/rng.hpp"
#include "photonics/fpv.hpp"
#include "photonics/noise.hpp"
#include "thermal/crosstalk_matrix.hpp"
#include "thermal/heat_solver.hpp"
#include "thermal/ted.hpp"
#include "thermal/transient.hpp"

namespace xl::core {

namespace {

constexpr double kTau = 6.283185307179586476925286766559;

// Stage-distinct seed tags so one root seed never correlates two stages.
constexpr std::uint64_t kThermalSeedTag = 0x7E4D;
constexpr std::uint64_t kFpvSeedTag = 0xF9B0;
constexpr std::uint64_t kNoiseSeedTag = 0x4E01;

/// Thermal detuning: the boot TO trim (TED or naive) leaves a per-ring phase
/// residual; the residual warms in with the heater RC constant and a slow
/// ambient excursion wanders the whole bank on top.
class ThermalEffectStage final : public EffectStage {
 public:
  ThermalEffectStage(const ThermalEffectConfig& cfg, std::size_t bank,
                     double fsr_nm, std::uint64_t seed)
      : cfg_(cfg), rc_(cfg.rc) {
    const double phase_per_nm = kTau / fsr_nm;

    const numerics::Matrix coupling =
        cfg.coupling_from_solver
            ? thermal::coupling_matrix_from_solver(
                  thermal::HeatSolver(solver_grid()), bank, cfg.pitch_um,
                  cfg.coupling)
            : thermal::coupling_matrix_exponential(bank, cfg.pitch_um,
                                                   cfg.coupling);

    // The heater load the boot calibration must realize: trim out the
    // wafer-map FPV drift of this bank (optimized design, Section IV-B).
    photonics::FpvModelConfig fpv_cfg;
    fpv_cfg.seed = numerics::hash_combine(seed, kThermalSeedTag);
    const photonics::FpvModel fpv(fpv_cfg);
    const auto drifts = fpv.row_drifts_nm(photonics::MrDesignKind::kOptimized,
                                          bank, cfg.pitch_um);
    numerics::Vector targets(bank);
    for (std::size_t i = 0; i < bank; ++i) {
      targets[i] = std::abs(drifts[i]) * phase_per_nm;
    }

    const thermal::TedTuner tuner(coupling);
    const thermal::TedSolution ted = tuner.solve(targets);
    const thermal::NaiveTuningResult naive =
        thermal::naive_tuning_powers(coupling, targets);

    telemetry_.ted_mean_power_mw = ted.mean_power_mw;
    telemetry_.naive_mean_power_mw = naive.mean_power_mw;
    telemetry_.naive_feasible = naive.feasible;
    telemetry_.condition_number = tuner.condition_number();

    // Residual per ring: achieved phase minus target under each drive mode
    // (TED measures against target + common-mode bias, which the laser comb
    // absorbs). Positive residual = over-heated = red shift. Both modes are
    // reported; the selected one becomes the stage's drift.
    const auto residuals_nm = [&](const numerics::Vector& powers, double offset,
                                  std::vector<double>& out) {
      const numerics::Vector achieved = coupling.matvec(powers);
      out.resize(bank);
      double sq = 0.0;
      for (std::size_t i = 0; i < bank; ++i) {
        out[i] = (achieved[i] - (targets[i] + offset)) / phase_per_nm;
        sq += out[i] * out[i];
      }
      return std::sqrt(sq / static_cast<double>(bank));
    };
    std::vector<double> other_nm;
    if (cfg.use_ted) {
      telemetry_.ted_residual_rms_nm =
          residuals_nm(ted.heater_powers_mw, ted.common_mode_bias_rad, residual_nm_);
      telemetry_.naive_residual_rms_nm =
          residuals_nm(naive.heater_powers_mw, 0.0, other_nm);
      telemetry_.residual_rms_nm = telemetry_.ted_residual_rms_nm;
    } else {
      telemetry_.ted_residual_rms_nm =
          residuals_nm(ted.heater_powers_mw, ted.common_mode_bias_rad, other_nm);
      telemetry_.naive_residual_rms_nm =
          residuals_nm(naive.heater_powers_mw, 0.0, residual_nm_);
      telemetry_.residual_rms_nm = telemetry_.naive_residual_rms_nm;
    }
  }

  [[nodiscard]] const char* name() const noexcept override { return "thermal"; }

  void apply(EffectFrame& frame) const override {
    // Heater warm-up: the trim residual only exists once the heaters are
    // driven; it settles in with the first-order RC response.
    const double warm = 1.0 - std::exp(-time_us_ / cfg_.rc.tau_us);
    const double ambient =
        cfg_.ambient_drift_nm * std::sin(kTau * time_us_ / cfg_.ambient_period_us);
    for (std::size_t i = 0; i < frame.ring_drift_nm.size(); ++i) {
      frame.ring_drift_nm[i] += residual_nm_[i] * warm + ambient;
    }
  }

  bool advance(double dt_us) override {
    time_us_ += dt_us;
    telemetry_.time_us = time_us_;
    telemetry_.ambient_nm =
        cfg_.ambient_drift_nm * std::sin(kTau * time_us_ / cfg_.ambient_period_us);
    return true;
  }

  void reset() override {
    time_us_ = 0.0;
    telemetry_.time_us = 0.0;
    telemetry_.ambient_nm = 0.0;
  }

  [[nodiscard]] const ThermalTelemetry& telemetry() const noexcept {
    return telemetry_;
  }

 private:
  [[nodiscard]] static thermal::HeatGridConfig solver_grid() {
    // Modest grid: the coupling probe runs one SOR solve per ring.
    thermal::HeatGridConfig grid;
    grid.nx = 128;
    grid.ny = 48;
    return grid;
  }

  ThermalEffectConfig cfg_;
  thermal::ThermalRcModel rc_;
  std::vector<double> residual_nm_;
  ThermalTelemetry telemetry_;
  double time_us_ = 0.0;
};

/// FPV residual: the wafer-map resonance offsets surviving boot calibration.
class FpvEffectStage final : public EffectStage {
 public:
  FpvEffectStage(const FpvEffectConfig& cfg, std::size_t bank, std::uint64_t seed) {
    photonics::FpvModelConfig model = cfg.model;
    model.seed = numerics::hash_combine(seed, kFpvSeedTag);
    const photonics::FpvModel fpv(model);
    residual_nm_ = fpv.row_drifts_nm(cfg.design, bank, cfg.pitch_um, cfg.x0_um,
                                     cfg.y0_um);
    for (double& d : residual_nm_) d *= cfg.trim_residual_fraction;
  }

  [[nodiscard]] const char* name() const noexcept override { return "fpv"; }

  void apply(EffectFrame& frame) const override {
    for (std::size_t i = 0; i < frame.ring_drift_nm.size(); ++i) {
      frame.ring_drift_nm[i] += residual_nm_[i];
    }
  }

 private:
  std::vector<double> residual_nm_;
};

/// Receiver noise: relative per-channel PD noise at the configured power.
class NoiseEffectStage final : public EffectStage {
 public:
  explicit NoiseEffectStage(const NoiseEffectConfig& cfg) {
    const double snr =
        photonics::receiver_snr(cfg.optical_power_mw, cfg.receiver);
    noise_std_ = snr > 0.0 ? 1.0 / std::sqrt(snr) : 0.0;
  }

  [[nodiscard]] const char* name() const noexcept override { return "noise"; }

  void apply(EffectFrame& frame) const override { frame.noise_std = noise_std_; }

 private:
  double noise_std_ = 0.0;
};

}  // namespace

EffectPipeline::EffectPipeline(const VdpSimOptions& opts)
    : config_(opts.effects) {
  config_.validate();
  if (opts.mrs_per_bank == 0) {
    throw std::invalid_argument("EffectPipeline: empty bank");
  }
  frame_.ring_drift_nm.resize(opts.mrs_per_bank, 0.0);

  if (config_.thermal) {
    auto stage = std::make_unique<ThermalEffectStage>(
        config_.thermal_stage, opts.mrs_per_bank, opts.fsr_nm, config_.seed);
    thermal_ = stage.get();
    stages_.push_back(std::move(stage));
    time_dependent_ = true;
  }
  if (config_.fpv) {
    stages_.push_back(std::make_unique<FpvEffectStage>(
        config_.fpv_stage, opts.mrs_per_bank, config_.seed));
  }
  if (config_.noise) {
    stages_.push_back(std::make_unique<NoiseEffectStage>(config_.noise_stage));
  }
  view_.noise_seed = numerics::hash_combine(config_.seed, kNoiseSeedTag);

  stage_frames_.resize(stages_.size());
  for (EffectFrame& sf : stage_frames_) {
    sf.ring_drift_nm.resize(opts.mrs_per_bank, 0.0);
  }
  stage_dirty_since_reset_.assign(stages_.size(), 0);
  rebuild();
}

EffectPipeline::~EffectPipeline() = default;
EffectPipeline::EffectPipeline(EffectPipeline&&) noexcept = default;
EffectPipeline& EffectPipeline::operator=(EffectPipeline&&) noexcept = default;

void EffectPipeline::rebuild() {
  for (std::size_t i = 0; i < stages_.size(); ++i) render_stage(i);
  combine();
}

void EffectPipeline::render_stage(std::size_t idx) {
  EffectFrame& sf = stage_frames_[idx];
  std::fill(sf.ring_drift_nm.begin(), sf.ring_drift_nm.end(), 0.0);
  sf.noise_std = 0.0;
  stages_[idx]->apply(sf);
}

void EffectPipeline::combine() {
  std::fill(frame_.ring_drift_nm.begin(), frame_.ring_drift_nm.end(), 0.0);
  frame_.noise_std = 0.0;
  frame_.crosstalk = config_.crosstalk;
  for (const EffectFrame& sf : stage_frames_) {
    for (std::size_t i = 0; i < frame_.ring_drift_nm.size(); ++i) {
      frame_.ring_drift_nm[i] += sf.ring_drift_nm[i];
    }
    frame_.noise_std += sf.noise_std;
  }

  const bool drift = config_.thermal || config_.fpv;
  view_.ring_drift_nm =
      drift ? std::span<const double>(frame_.ring_drift_nm) : std::span<const double>{};
  view_.noise_std = frame_.noise_std;
}

void EffectPipeline::advance(double dt_us) {
  if (!time_dependent_) return;
  if (dt_us <= 0.0) {
    throw std::invalid_argument("EffectPipeline::advance: dt_us must be > 0");
  }
  advanced_since_reset_ = true;
  bool dirty = false;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stages_[i]->advance(dt_us)) {
      stage_dirty_since_reset_[i] = 1;
      render_stage(i);
      dirty = true;
    }
  }
  time_us_ += dt_us;
  if (dirty) combine();
}

void EffectPipeline::reset() {
  // Serving resets the pipeline before every micro-batch; when no advance()
  // landed since the last reset the frame already holds the t = 0 render and
  // the whole call is a branch.
  if (!advanced_since_reset_) return;
  for (const auto& stage : stages_) stage->reset();
  time_us_ = 0.0;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (stage_dirty_since_reset_[i] != 0) {
      render_stage(i);
      stage_dirty_since_reset_[i] = 0;
    }
  }
  combine();
  advanced_since_reset_ = false;
}

std::vector<std::string> EffectPipeline::stage_names() const {
  std::vector<std::string> names;
  names.reserve(stages_.size() + 1);
  for (const auto& stage : stages_) names.emplace_back(stage->name());
  if (frame_.crosstalk) names.emplace_back("crosstalk");
  return names;
}

const ThermalTelemetry* EffectPipeline::thermal_telemetry() const noexcept {
  return thermal_ != nullptr
             ? &static_cast<const ThermalEffectStage*>(thermal_)->telemetry()
             : nullptr;
}

}  // namespace xl::core
