// Precomputed Lorentzian transfer tables for one MR weight bank.
//
// The functional VDP datapath evaluates the same ring transfer function for
// every dot product: ring j (designed at grid wavelength lambda_j, loaded Q,
// fixed extinction ratio) imprints a quantized weight magnitude and every
// channel i sees the product of all ring transmissions. Re-deriving the
// Lorentzian constants per call (half bandwidths, pairwise channel
// separations, the dB->ratio floor, the weight->detuning inversion) dominated
// the scalar simulator's runtime. This class hoists all of it to
// construction time:
//   * per-ring half bandwidths delta_j and delta_j^2,
//   * the pairwise separation table lambda_i - lambda_j,
//   * a per-DAC-code weight->detuning-ratio LUT (the imprint inverse problem
//     solved once per representable weight instead of once per element), and
//   * Eq. (8) crosstalk row sums phi_i = sum_{j != i} phi(i, j).
// Both the legacy scalar VdpSimulator and the BatchedVdpEngine run their
// inner loops through vdp_dot()/arm_sum() here, so the two paths are
// bit-identical by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numerics/aligned.hpp"
#include "photonics/devices.hpp"
#include "photonics/wdm.hpp"

namespace xl::photonics {

/// Reusable buffers for vdp_dot (keep one per thread; avoids per-call
/// allocation in the batched engine's hot loop). The noise buffers hold one
/// entry per chunk of the running dot product, so the PD-noise draws for the
/// whole operand can go through one bulk hash_gaussian_keys kernel call.
struct VdpScratch {
  std::vector<double> detune_pos;
  std::vector<double> detune_neg;
  std::vector<double> partial;            ///< Per-chunk balanced-PD partials.
  std::vector<std::uint64_t> noise_key;   ///< Per-chunk operand-hash keys.
  std::vector<double> noise_draw;         ///< Bulk gaussian draws.
};

/// Non-ideality view consumed by vdp_dot — filled by the core effect pipeline
/// (core/effect_pipeline.hpp), owned outside this class so the LUT stays a
/// pure precomputed table.
///   * ring_drift_nm: per-ring resonance drift (thermal + FPV), size >=
///     bank_size() or empty for none. A drifted ring sits at
///     lambda_j - detune_j + drift_j, so the drift is subtracted from the
///     imprint detuning on *both* balanced-PD arms.
///   * noise_std: relative per-channel photodetector noise (1/sqrt(SNR));
///     0 disables. The draw is keyed on (noise_seed, chunk position, the
///     chunk's operand bit patterns), a pure function of the operands —
///     scalar, batched, and any executor width sample identical noise,
///     and distinct operand chunks get independent draws.
struct VdpEffects {
  std::span<const double> ring_drift_nm;
  double noise_std = 0.0;
  std::uint64_t noise_seed = 0;

  [[nodiscard]] bool active() const noexcept {
    return !ring_drift_nm.empty() || noise_std > 0.0;
  }
};

class MrBankTransferLut {
 public:
  /// Tables for a bank whose ring i is designed at `grid.wavelength_nm(i)`.
  /// `resolution_bits` fixes the DAC code space of the weight LUT.
  /// Throws std::invalid_argument on non-physical parameters.
  MrBankTransferLut(const WavelengthGrid& grid, double q_factor,
                    double extinction_ratio_db, int resolution_bits);

  [[nodiscard]] std::size_t bank_size() const noexcept { return n_; }
  [[nodiscard]] const UniformQuantizer& quantizer() const noexcept { return quant_; }
  /// Through-port transmission floor at exact resonance (from the ER).
  [[nodiscard]] double min_transmission() const noexcept { return t_min_; }
  [[nodiscard]] double half_bandwidth_nm(std::size_t ring) const {
    return delta_.at(ring);
  }

  /// DAC model: quantized magnitude in [0, 1].
  [[nodiscard]] double quantize_magnitude(double value) const noexcept {
    return quant_.quantize(value);
  }

  /// Detuning (nm, >= 0) that imprints the weight magnitude encoded by DAC
  /// `code` on `ring`: the Microring::imprint_weight inverse problem, served
  /// from the per-code LUT. Ring indices are positions within one chunk.
  [[nodiscard]] double detune_for_code(std::size_t ring, std::uint32_t code) const;

  /// Transmission-weighted channel sum of one arm:
  ///   sum_i a[i] * prod_j T_j(lambda_i),
  /// where ring j sits at lambda_j - detune[j]. When `crosstalk` is false
  /// only the on-channel ring attenuates (no parasitic neighbours).
  /// a and detune must have equal length <= bank_size().
  [[nodiscard]] double arm_sum(std::span<const double> a,
                               std::span<const double> detune,
                               bool crosstalk) const noexcept;

  /// Full signed dot product of pre-normalized operands. `a_mag` holds the
  /// quantized activation magnitudes, `detune` the per-element imprint
  /// detunings, and `neg[k]` selects the negative arm of the balanced PD
  /// (sign of activation folded into the weight). Inputs are processed in
  /// bank_size() chunks with per-chunk partial-sum requantization, exactly
  /// mirroring the hardware's VCSEL accumulation path.
  [[nodiscard]] double vdp_dot(std::span<const double> a_mag,
                               std::span<const double> detune,
                               std::span<const unsigned char> neg,
                               bool crosstalk, VdpScratch& scratch) const;

  /// vdp_dot under non-idealities: per-ring resonance drifts shift the
  /// operating point of every chunk and photodetector noise perturbs each
  /// balanced-PD partial sum before requantization. `effects == nullptr` or
  /// an inactive view is bit-identical to the plain overload.
  [[nodiscard]] double vdp_dot(std::span<const double> a_mag,
                               std::span<const double> detune,
                               std::span<const unsigned char> neg,
                               bool crosstalk, VdpScratch& scratch,
                               const VdpEffects* effects) const;

  /// Doubles one arm-transmission table occupies for a `total`-element
  /// operand: per bank_size() chunk, len^2 with crosstalk (every ring j
  /// attenuates every channel i) or len without (on-channel ring only).
  [[nodiscard]] std::size_t arm_table_elems(std::size_t total,
                                            bool crosstalk) const noexcept;

  /// Fill the transmission table of an all-idle arm (every ring parked on
  /// resonance, shifted only by drift) for a `total`-element operand:
  /// `out` holds arm_table_elems(total, crosstalk) doubles, column-major per
  /// chunk (out[j*len + i] = ring j's transmission at channel i) with
  /// crosstalk, per-ring otherwise. Weight-independent: one idle table
  /// serves every output row of a GEMM under the same frozen effects.
  void build_idle_table(std::size_t total, bool crosstalk,
                        const VdpEffects* effects, double* out) const;

  /// Same layout, for the arm carrying the imprint detunings `detune` (the
  /// dp/dn value a ring takes when it holds the weight). Every factor is
  /// computed with the arm-sum kernels' exact expression, so table-driven
  /// sums are bit-identical to the direct ones.
  void build_carry_table(std::span<const double> detune, bool crosstalk,
                         const VdpEffects* effects, double* out) const;

  /// vdp_dot over prebuilt transmission tables: `carry`/`idle` were filled
  /// by build_carry_table(detune, ...)/build_idle_table under the same
  /// frozen effects, and `neg[k]` selects per ring which arm carries the
  /// weight — the positive arm reads carry where neg is 0 and idle where it
  /// is 1, the negative arm the opposite. Drift is already baked into the
  /// tables; `effects` supplies only the PD-noise model (keyed on the same
  /// operand spans). Bit-identical to the effects overload of vdp_dot.
  [[nodiscard]] double vdp_dot_tbl(std::span<const double> a_mag,
                                   std::span<const double> detune,
                                   std::span<const unsigned char> neg,
                                   bool crosstalk, VdpScratch& scratch,
                                   const VdpEffects* effects,
                                   const double* carry,
                                   const double* idle) const;

  /// Eq. (8) row sums phi_i = sum_{j != i} phi(i, j) under unit input power,
  /// precomputed once per bank (the Section V-B noise floor).
  [[nodiscard]] const std::vector<double>& crosstalk_row_sums() const noexcept {
    return phi_row_sum_;
  }
  [[nodiscard]] double max_crosstalk_row_sum() const noexcept {
    return max_phi_row_sum_;
  }

 private:
  /// Drift pointer from an effects view, validated against the bank size
  /// (nullptr when absent); shared by vdp_dot and the table builders.
  [[nodiscard]] const double* drift_ptr(const VdpEffects* effects) const;

  std::size_t n_ = 0;
  UniformQuantizer quant_;
  double t_min_ = 0.0;   ///< Transmission at exact resonance.
  double full_ = 0.0;    ///< 1 - t_min: drop at exact resonance.
  std::vector<double> lambda_;    ///< Grid wavelengths (nm).
  std::vector<double> delta_;     ///< Per-ring half bandwidth (nm).
  // 64-byte aligned: the dispatched arm-sum kernels stream these every call.
  numerics::AlignedVector delta_sq_;
  numerics::AlignedVector sep_;   ///< lambda_i - lambda_j, n x n row-major.
  std::vector<double> ratio_lut_; ///< Per weight code: max(0, full/drop - 1).
  std::vector<double> phi_row_sum_;
  double max_phi_row_sum_ = 0.0;
};

}  // namespace xl::photonics
