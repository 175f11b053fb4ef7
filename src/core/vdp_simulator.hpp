// Functional (signal-level) simulation of one VDP arm — legacy scalar path.
//
// Where the performance/power models answer "how fast / how much energy",
// this simulator answers "what value does the analog datapath actually
// compute": activations and weights pass through quantizers, Lorentzian MR
// transmissions, inter-channel crosstalk, and balanced photodetection.
//
// All Lorentzian constants, the weight->detuning imprint inversion, and the
// Eq. 8 crosstalk row sums are precomputed once at construction in a shared
// photonics::MrBankTransferLut; dot() normalizes its operands (a per-call
// property of the data, as in the DAC scaling hardware) and runs the LUT's
// operand packing, table, D-row and partial code for one output. The
// batched GEMM path (core/batched_vdp_engine.hpp) runs the *same* code, so
// scalar and batched results are bit-identical. Prefer BatchedVdpEngine for
// whole layers; this class remains the per-dot-product reference.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/effects.hpp"
#include "photonics/bank_lut.hpp"
#include "photonics/crosstalk.hpp"
#include "photonics/microring.hpp"
#include "photonics/wdm.hpp"

namespace xl::core {

class EffectPipeline;

struct VdpSimOptions {
  std::size_t mrs_per_bank = 15;
  int resolution_bits = 16;
  double q_factor = 8000.0;
  double fsr_nm = 18.0;
  double center_wavelength_nm = 1550.0;
  bool model_crosstalk = true;  ///< Inject Eq. 8 inter-channel noise (legacy
                                ///< alias of effects.crosstalk; both must be
                                ///< on for the crosstalk stage to run).
  EffectConfig effects;         ///< Composable non-ideality stages.

  /// Rejects non-physical datapath parameters (empty bank, resolution
  /// outside [1, 16], q_factor <= 1, non-positive fsr/center wavelength) and
  /// invalid effect-stage settings. Called from every engine constructor,
  /// mirroring BaselineParams::validate(). Throws std::invalid_argument.
  void validate() const;

  /// The effect set as the pipeline actually runs it: the crosstalk stage is
  /// gated on BOTH the legacy model_crosstalk knob and effects.crosstalk.
  /// Use this (not `effects`) when reporting which datapath was measured.
  [[nodiscard]] EffectConfig effective_effects() const {
    EffectConfig out = effects;
    out.crosstalk = out.crosstalk && model_crosstalk;
    return out;
  }
};

/// Signal-level simulator for dot products on one VDP unit.
class VdpSimulator {
 public:
  explicit VdpSimulator(const VdpSimOptions& opts = {});
  ~VdpSimulator();
  VdpSimulator(VdpSimulator&&) noexcept;
  VdpSimulator& operator=(VdpSimulator&&) noexcept;

  /// Compute dot(x, w) photonically. Inputs may be any sign/magnitude; the
  /// simulator normalizes per-call (as the DAC scaling hardware does),
  /// routes each weight to the positive or negative arm of the balanced PD
  /// by the product of signs, processes ceil(len/bank) chunks, and
  /// accumulates requantized partial sums.
  [[nodiscard]] double dot(std::span<const double> x, std::span<const double> w) const;

  /// Exact reference for error measurement.
  [[nodiscard]] static double exact_dot(std::span<const double> x,
                                        std::span<const double> w);

  /// |photonic - exact| for one pair.
  [[nodiscard]] double absolute_error(std::span<const double> x,
                                      std::span<const double> w) const;

  [[nodiscard]] const VdpSimOptions& options() const noexcept { return opts_; }

  /// The precomputed bank transfer tables (shared kernel with the batched
  /// engine); exposes the Eq. 8 crosstalk row sums.
  [[nodiscard]] const xl::photonics::MrBankTransferLut& lut() const noexcept {
    return lut_;
  }

  /// The non-ideality pipeline built from opts.effects. dot() reads its
  /// current operating-point perturbation; callers advance simulated time
  /// (thermal evolution) through it.
  [[nodiscard]] EffectPipeline& effects() noexcept { return *effects_; }
  [[nodiscard]] const EffectPipeline& effects() const noexcept { return *effects_; }

 private:
  VdpSimOptions opts_;
  xl::photonics::WavelengthGrid grid_;
  xl::photonics::MrBankTransferLut lut_;
  std::unique_ptr<EffectPipeline> effects_;
};

}  // namespace xl::core
