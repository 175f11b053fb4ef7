// Precomputed Lorentzian transfer tables for one MR weight bank, and the
// one chunked VDP datapath every photonic dot product runs through.
//
// Ring j (designed at grid wavelength lambda_j, loaded Q, fixed extinction
// ratio) imprints a quantized weight magnitude and every channel i sees the
// product of all ring transmissions. Construction hoists the Lorentzian
// constants: per-ring half bandwidths delta_j^2, the pairwise separation
// table lambda_i - lambda_j, a per-DAC-code weight->detuning-ratio LUT, and
// the Eq. (8) crosstalk row sums phi_i = sum_{j != i} phi(i, j).
//
// Per-chunk numeric contract (one bank_size() chunk of a k-element operand):
//   * Tables. Each ring has two operating points per frame: "carry" (its
//     imprint detuning, minus drift) and "idle" (parked on resonance, minus
//     drift). build_carry_table/build_idle_table tabulate the transmission
//     of every (ring, channel) pair at both points.
//   * D row. sel[j] routes ring j's weight to the negative arm when the
//     weight is nonzero and its sign differs from the activation's. Then
//     D_i = prod_j(pos-arm factor) - prod_j(neg-arm factor), each product
//     formed in ring order from the first factor. Sign-free activations
//     (no negative entry in the chunk) give a D that depends on the weights
//     only; callers cache it beside the carry table (build_d_row).
//   * Partial. partial = sum_i a_i * D_i in index order, plus PD noise,
//     requantized at the datapath resolution and accumulated over chunks
//     (vdp_output).
//   * Noise key. hash_combine(hash_combine(noise_seed, h_w), h_act): h_w
//     hashes the chunk start and the weight chunk (pack_weight_row, once
//     per pack), h_act the activation chunk (pack_activation_row, once per
//     row per call): each site's key is split from a parent key.
// VdpSimulator::dot and both BatchedVdpEngine::photonic_matmul overloads
// run exactly these functions, so all three agree bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "numerics/aligned.hpp"
#include "photonics/devices.hpp"
#include "photonics/wdm.hpp"

namespace xl::photonics {

/// Reusable per-thread buffers for vdp_output (keep one per executor lane;
/// fit_scratch sizes them so the hot loop never allocates). The noise
/// buffers hold one entry per chunk, so the PD-noise draws for a whole
/// output go through one bulk hash_gaussian_keys kernel call.
struct VdpScratch {
  std::vector<double> d;                  ///< On-the-fly D of one chunk.
  std::vector<unsigned char> sel;         ///< Arm selects of one chunk.
  std::vector<double> partial;            ///< Per-chunk balanced-PD partials.
  std::vector<std::uint64_t> noise_key;   ///< Per-chunk noise keys.
  std::vector<double> noise_draw;         ///< Bulk gaussian draws.
};

/// Activation operand of one output (one GEMM row), from
/// pack_activation_row. Per element: quantized magnitude and sign. Per
/// chunk: whether it holds a negative activation, and the activation half
/// of the noise key (read only when PD noise is on).
struct VdpActivationRow {
  const double* a = nullptr;
  const unsigned char* neg = nullptr;
  const unsigned char* mixed = nullptr;
  const std::uint64_t* key = nullptr;
};

/// Weight operand of one output, from pack_weight_row plus the frame's
/// tables. Per element: sign and exact-zero flags. Per chunk: the weight
/// half of the noise key. `carry` is the row's carry table and `d` its
/// sign-free D row (build_d_row).
struct VdpWeightRow {
  const unsigned char* neg = nullptr;
  const unsigned char* zero = nullptr;
  const std::uint64_t* key = nullptr;
  const double* carry = nullptr;
  const double* d = nullptr;
};

/// Non-ideality view consumed by the VDP datapath — filled by the core effect
/// pipeline (core/effect_pipeline.hpp), owned outside this class so the LUT
/// stays a pure precomputed table.
///   * ring_drift_nm: per-ring resonance drift (thermal + FPV), size >=
///     bank_size() or empty for none. A drifted ring sits at
///     lambda_j - detune_j + drift_j, so the drift is subtracted from the
///     imprint detuning on *both* balanced-PD arms.
///   * noise_std: relative per-channel photodetector noise (1/sqrt(SNR));
///     0 disables. Each chunk's draw is keyed on
///     hash_combine(hash_combine(noise_seed, h_w), h_act), where h_w hashes
///     the chunk start and the weight chunk and h_act the activation chunk:
///     a pure function of the operands, so scalar, batched, and any
///     executor width sample identical noise, and distinct operand chunks
///     get independent draws.
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

  /// Detuning (nm, >= 0) that imprints the weight magnitude encoded by DAC
  /// `code` on `ring`: the Microring::imprint_weight inverse problem, served
  /// from the per-code LUT. Ring indices are positions within one chunk.
  [[nodiscard]] double detune_for_code(std::size_t ring, std::uint32_t code) const;

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
  /// operating point a ring takes when it holds the weight).
  void build_carry_table(std::span<const double> detune, bool crosstalk,
                         const VdpEffects* effects, double* out) const;

  /// Bank chunks of a `total`-element operand: ceil(total / bank_size()).
  [[nodiscard]] std::size_t chunks(std::size_t total) const noexcept {
    return (total + n_ - 1) / n_;
  }

  /// Pack one weight row of length k and return its DAC scale max |w|. For
  /// a nonzero row: imprint detunings `det`, sign and exact-zero flags, and
  /// the weight half of each chunk's noise key, key[c] = the hash_combine
  /// chain over the chunk start and each element's detuning bits, sign and
  /// zero flag. An all-zero row contributes exact zeros and is left
  /// unpacked. T is float or double.
  template <class T>
  double pack_weight_row(const T* w, std::size_t k, double* det,
                         unsigned char* neg, unsigned char* zero,
                         std::uint64_t* key) const;

  /// Pack one activation row of length k and return its DAC scale max |x|.
  /// For a nonzero row: quantized magnitudes `a`, sign flags, per-chunk
  /// `mixed` flags (the chunk holds a negative activation) and, when `key`
  /// is non-null, the activation half of each chunk's noise key (the
  /// hash_combine chain over each element's magnitude bits and sign). An
  /// all-zero row is left unpacked. T is float or double.
  template <class T>
  double pack_activation_row(const T* x, std::size_t k, double* a,
                             unsigned char* neg, unsigned char* mixed,
                             std::uint64_t* key) const;

  /// The sign-free D row of one weight row (every activation taken
  /// non-negative): d holds `total` doubles, chunk by chunk, formed from the
  /// row's carry table and the idle table by the same kernel vdp_output
  /// uses for chunks that hold a negative activation.
  void build_d_row(const unsigned char* w_neg, std::size_t total,
                   bool crosstalk, const double* carry, const double* idle,
                   double* d) const;

  /// Size `scratch` for operands of up to `total` elements.
  void fit_scratch(VdpScratch& scratch, std::size_t total) const;

  /// One output of the chunked datapath over a k-element operand, before
  /// the DAC scales: per chunk, partial = sum_i a_i * D_i (the cached
  /// w.d chunk when the activation chunk is sign-free, formed into scratch
  /// otherwise), plus PD noise from `effects`, requantized at the datapath
  /// resolution and summed over chunks. Drift is already baked into the
  /// tables; `idle` is the frame's idle table. `scratch` must be fitted
  /// (fit_scratch) for k.
  [[nodiscard]] double vdp_output(const VdpActivationRow& x,
                                  const VdpWeightRow& w, std::size_t k,
                                  const double* idle, bool crosstalk,
                                  const VdpEffects* effects,
                                  VdpScratch& scratch) const;

  /// Multiplies that form the D of one chunk of `len` rings: 2 * len *
  /// (len - 1) with crosstalk, none without.
  [[nodiscard]] static std::size_t chunk_d_products(std::size_t len,
                                                    bool crosstalk) noexcept {
    return crosstalk && len > 0 ? 2 * len * (len - 1) : 0;
  }

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
  /// (nullptr when absent); shared by the table builders.
  [[nodiscard]] const double* drift_ptr(const VdpEffects* effects) const;

  /// D of the `len`-ring chunk at `start` under arm selects `sel`, from a
  /// whole operand's carry and idle tables, into d[0, len).
  void chunk_d(const unsigned char* sel, std::size_t start, std::size_t len,
               bool crosstalk, const double* carry, const double* idle,
               double* d) const;

  std::size_t n_ = 0;
  UniformQuantizer quant_;
  double t_min_ = 0.0;   ///< Transmission at exact resonance.
  double full_ = 0.0;    ///< 1 - t_min: drop at exact resonance.
  std::vector<double> lambda_;    ///< Grid wavelengths (nm).
  std::vector<double> delta_;     ///< Per-ring half bandwidth (nm).
  // 64-byte aligned: the table builders stream these every rebuild.
  numerics::AlignedVector delta_sq_;
  numerics::AlignedVector sep_;   ///< [j*n + i] = lambda_i - lambda_j.
  std::vector<double> ratio_lut_; ///< Per weight code: max(0, full/drop - 1).
  std::vector<double> phi_row_sum_;
  double max_phi_row_sum_ = 0.0;
};

}  // namespace xl::photonics
