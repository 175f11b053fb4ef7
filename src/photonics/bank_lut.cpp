#include "photonics/bank_lut.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "numerics/kernels.hpp"
#include "numerics/rng.hpp"
#include "photonics/crosstalk.hpp"
#include "photonics/units.hpp"

namespace xl::photonics {

MrBankTransferLut::MrBankTransferLut(const WavelengthGrid& grid, double q_factor,
                                     double extinction_ratio_db, int resolution_bits)
    : n_(grid.channels()), quant_(resolution_bits) {
  if (n_ == 0) {
    throw std::invalid_argument("MrBankTransferLut: empty bank");
  }
  if (q_factor <= 1.0) {
    throw std::invalid_argument("MrBankTransferLut: Q factor must exceed 1");
  }
  if (extinction_ratio_db <= 0.0) {
    throw std::invalid_argument("MrBankTransferLut: extinction ratio must be positive");
  }

  t_min_ = db_to_ratio(-extinction_ratio_db);
  full_ = 1.0 - t_min_;

  lambda_ = grid.wavelengths();
  delta_.resize(n_);
  delta_sq_.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    delta_[j] = lambda_[j] / (2.0 * q_factor);
    delta_sq_[j] = delta_[j] * delta_[j];
  }

  sep_.resize(n_ * n_);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      sep_[i * n_ + j] = lambda_[i] - lambda_[j];
    }
  }

  // Weight-imprint inversion per representable DAC code. A quantized weight
  // magnitude w is realized as a through-port transmission of w, clamped to
  // the achievable range [t_min, 1): drop = 1 - w and the Lorentzian inverse
  // gives detuning^2 = delta^2 * (full/drop - 1). The ring-independent ratio
  // is tabulated; detune_for_code applies the per-ring delta.
  const std::size_t levels = quant_.levels();
  ratio_lut_.resize(levels);
  for (std::size_t code = 0; code < levels; ++code) {
    const double w = quant_.decode(static_cast<std::uint32_t>(code));
    const double target = std::clamp(w, t_min_, 1.0 - 1e-9);
    const double drop = 1.0 - target;
    ratio_lut_[code] = std::max(0.0, full_ / drop - 1.0);
  }

  // Eq. (8) row sums: parasitic coupling into channel i from all other rings
  // sitting on their own resonances, under unit input power.
  phi_row_sum_.assign(n_, 0.0);
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < n_; ++j) {
      if (i == j) continue;
      phi_row_sum_[i] += crosstalk_coupling(sep_[i * n_ + j], delta_[j]);
    }
    max_phi_row_sum_ = std::max(max_phi_row_sum_, phi_row_sum_[i]);
  }
}

double MrBankTransferLut::detune_for_code(std::size_t ring, std::uint32_t code) const {
  return std::sqrt(delta_sq_.at(ring) * ratio_lut_.at(code));
}

double MrBankTransferLut::arm_sum(std::span<const double> a,
                                  std::span<const double> detune,
                                  bool crosstalk) const noexcept {
  const auto& kt = numerics::kernels::active_table();
  if (crosstalk) {
    return kt.arm_sum_xtalk(a.data(), detune.data(), sep_.data(), n_,
                            delta_sq_.data(), full_, a.size());
  }
  return kt.arm_sum_diag(a.data(), detune.data(), delta_sq_.data(), full_,
                         a.size());
}

double MrBankTransferLut::vdp_dot(std::span<const double> a_mag,
                                  std::span<const double> detune,
                                  std::span<const unsigned char> neg,
                                  bool crosstalk, VdpScratch& scratch) const {
  return vdp_dot(a_mag, detune, neg, crosstalk, scratch, nullptr);
}

const double* MrBankTransferLut::drift_ptr(const VdpEffects* effects) const {
  if (effects == nullptr || effects->ring_drift_nm.empty()) return nullptr;
  if (effects->ring_drift_nm.size() < n_) {
    throw std::invalid_argument(
        "MrBankTransferLut: ring drift shorter than bank");
  }
  return effects->ring_drift_nm.data();
}

std::size_t MrBankTransferLut::arm_table_elems(std::size_t total,
                                               bool crosstalk) const noexcept {
  if (!crosstalk) return total;
  std::size_t elems = 0;
  for (std::size_t start = 0; start < total; start += n_) {
    const std::size_t len = std::min(n_, total - start);
    elems += len * len;
  }
  return elems;
}

// The two builders tabulate the exact per-(channel, ring) factors the
// arm-sum kernels evaluate inline — same subexpressions, same rounding —
// so arm sums over the tables reproduce the direct sums bit for bit. A
// ring's operating point takes one of two values per arm: the imprint
// detuning when it carries the weight ("carry") or resonance when the
// weight went to the other arm ("idle"); drift shifts both.
void MrBankTransferLut::build_idle_table(std::size_t total, bool crosstalk,
                                         const VdpEffects* effects,
                                         double* out) const {
  const double* drift = drift_ptr(effects);
  std::size_t off = 0;
  for (std::size_t start = 0; start < total; start += n_) {
    const std::size_t len = std::min(n_, total - start);
    if (crosstalk) {
      for (std::size_t j = 0; j < len; ++j) {
        const double dj = drift != nullptr ? -drift[j] : 0.0;
        for (std::size_t i = 0; i < len; ++i) {
          const double d = sep_[i * n_ + j] + dj;
          out[off + j * len + i] =
              1.0 - full_ * delta_sq_[j] / (d * d + delta_sq_[j]);
        }
      }
      off += len * len;
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        const double d = drift != nullptr ? -drift[i] : 0.0;
        out[off + i] = 1.0 - full_ * delta_sq_[i] / (d * d + delta_sq_[i]);
      }
      off += len;
    }
  }
}

void MrBankTransferLut::build_carry_table(std::span<const double> detune,
                                          bool crosstalk,
                                          const VdpEffects* effects,
                                          double* out) const {
  const std::size_t total = detune.size();
  const double* drift = drift_ptr(effects);
  std::size_t off = 0;
  for (std::size_t start = 0; start < total; start += n_) {
    const std::size_t len = std::min(n_, total - start);
    if (crosstalk) {
      for (std::size_t j = 0; j < len; ++j) {
        const double dj = drift != nullptr ? detune[start + j] - drift[j]
                                           : detune[start + j];
        for (std::size_t i = 0; i < len; ++i) {
          const double d = sep_[i * n_ + j] + dj;
          out[off + j * len + i] =
              1.0 - full_ * delta_sq_[j] / (d * d + delta_sq_[j]);
        }
      }
      off += len * len;
    } else {
      for (std::size_t i = 0; i < len; ++i) {
        const double d = drift != nullptr ? detune[start + i] - drift[i]
                                          : detune[start + i];
        out[off + i] = 1.0 - full_ * delta_sq_[i] / (d * d + delta_sq_[i]);
      }
      off += len;
    }
  }
}

double MrBankTransferLut::vdp_dot(std::span<const double> a_mag,
                                  std::span<const double> detune,
                                  std::span<const unsigned char> neg,
                                  bool crosstalk, VdpScratch& scratch,
                                  const VdpEffects* effects) const {
  const std::size_t total = a_mag.size();
  if (detune.size() != total || neg.size() != total) {
    throw std::invalid_argument("MrBankTransferLut::vdp_dot: size mismatch");
  }
  const double* drift = drift_ptr(effects);
  const double noise_std =
      effects != nullptr && effects->active() ? effects->noise_std : 0.0;
  if (scratch.detune_pos.size() < n_) {
    scratch.detune_pos.resize(n_);
    scratch.detune_neg.resize(n_);
  }
  double* dp = scratch.detune_pos.data();
  double* dn = scratch.detune_neg.data();

  // Split the signed weight across the balanced-PD arms: the arm not
  // carrying the weight holds a zero-weight (on-resonance) ring. A drifted
  // ring j resonates at lambda_j - detune_j + drift_j, so the drift enters
  // as a negative detuning contribution on both arms.
  const auto chunk_partial = [&](std::size_t start, std::size_t len) {
    if (drift == nullptr) {
      for (std::size_t j = 0; j < len; ++j) {
        const double d = detune[start + j];
        if (neg[start + j]) {
          dp[j] = 0.0;
          dn[j] = d;
        } else {
          dp[j] = d;
          dn[j] = 0.0;
        }
      }
    } else {
      for (std::size_t j = 0; j < len; ++j) {
        const double d = detune[start + j];
        if (neg[start + j]) {
          dp[j] = -drift[j];
          dn[j] = d - drift[j];
        } else {
          dp[j] = d - drift[j];
          dn[j] = -drift[j];
        }
      }
    }
    const double pos = arm_sum(a_mag.subspan(start, len), {dp, len}, crosstalk);
    const double negative =
        arm_sum(a_mag.subspan(start, len), {dn, len}, crosstalk);
    return pos - negative;
  };
  // Partial-sum ADC: the balanced-PD output re-enters the digital domain
  // (via the VCSEL accumulation path) at the datapath resolution.
  const auto requantized = [this](double partial, std::size_t len) {
    const double norm = static_cast<double>(len);
    return (quant_.quantize(std::abs(partial) / norm) * norm) *
           (partial < 0.0 ? -1.0 : 1.0);
  };

  double acc = 0.0;
  if (noise_std > 0.0) {
    // Balanced detection sums 2 * len independent per-channel noise currents
    // in quadrature. Each draw is keyed on the chunk's operands (activation
    // magnitudes, imprint detunings, arm signs, chunk position), never on
    // evaluation order, so scalar, batched, and any executor schedule sample
    // the same perturbation; only genuinely identical operand chunks share a
    // draw. The keys for every chunk are collected first so the draws go
    // through one bulk hash_gaussian_keys kernel call — bit-identical to the
    // historical per-chunk hash_gaussian calls.
    const auto bits_of = [](double v) {
      std::uint64_t b;
      static_assert(sizeof(b) == sizeof(v));
      std::memcpy(&b, &v, sizeof(b));
      return b;
    };
    const std::size_t nchunks = (total + n_ - 1) / n_;
    if (scratch.partial.size() < nchunks) {
      scratch.partial.resize(nchunks);
      scratch.noise_key.resize(nchunks);
      scratch.noise_draw.resize(nchunks);
    }
    std::size_t ci = 0;
    for (std::size_t start = 0; start < total; start += n_, ++ci) {
      const std::size_t len = std::min(n_, total - start);
      scratch.partial[ci] = chunk_partial(start, len);
      std::uint64_t key = xl::numerics::hash_combine(
          effects->noise_seed, static_cast<std::uint64_t>(start));
      for (std::size_t j = 0; j < len; ++j) {
        key = xl::numerics::hash_combine(key, bits_of(a_mag[start + j]));
        key = xl::numerics::hash_combine(
            key, bits_of(detune[start + j]) ^ (neg[start + j] ? ~0ULL : 0ULL));
      }
      scratch.noise_key[ci] = key;
    }
    numerics::kernels::active_table().hash_gaussian_keys(
        scratch.noise_key.data(), nchunks, scratch.noise_draw.data());
    ci = 0;
    for (std::size_t start = 0; start < total; start += n_, ++ci) {
      const std::size_t len = std::min(n_, total - start);
      const double partial =
          scratch.partial[ci] + noise_std *
                                    std::sqrt(2.0 * static_cast<double>(len)) *
                                    scratch.noise_draw[ci];
      acc += requantized(partial, len);
    }
  } else {
    for (std::size_t start = 0; start < total; start += n_) {
      const std::size_t len = std::min(n_, total - start);
      acc += requantized(chunk_partial(start, len), len);
    }
  }
  return acc;
}

double MrBankTransferLut::vdp_dot_tbl(std::span<const double> a_mag,
                                      std::span<const double> detune,
                                      std::span<const unsigned char> neg,
                                      bool crosstalk, VdpScratch& scratch,
                                      const VdpEffects* effects,
                                      const double* carry,
                                      const double* idle) const {
  const std::size_t total = a_mag.size();
  if (detune.size() != total || neg.size() != total) {
    throw std::invalid_argument("MrBankTransferLut::vdp_dot_tbl: size mismatch");
  }
  const double noise_std =
      effects != nullptr && effects->active() ? effects->noise_std : 0.0;

  // Balanced-PD partial over the prebuilt tables: ring j's factor is carry
  // on the arm holding the weight and idle on the other. The fused pair
  // kernels form both arms in one table pass, multiplying the identical
  // factor values in the identical order as vdp_dot's arm_sum calls and
  // subtracting identically — bit-identical, divisions hoisted.
  const auto& kt = numerics::kernels::active_table();
  const auto chunk_partial = [&](std::size_t start, std::size_t toff,
                                 std::size_t len) {
    const double* a = a_mag.data() + start;
    const unsigned char* sel = neg.data() + start;
    if (crosstalk) {
      return kt.arm_pair_xtalk_tbl(a, sel, carry + toff, idle + toff, len);
    }
    return kt.arm_pair_diag_tbl(a, sel, carry + toff, idle + toff, len);
  };
  // Keep in sync with vdp_dot: the requantization and the operand-keyed
  // noise accumulation below are the same code over the same partials.
  const auto requantized = [this](double partial, std::size_t len) {
    const double norm = static_cast<double>(len);
    return (quant_.quantize(std::abs(partial) / norm) * norm) *
           (partial < 0.0 ? -1.0 : 1.0);
  };

  double acc = 0.0;
  std::size_t toff = 0;
  if (noise_std > 0.0) {
    const auto bits_of = [](double v) {
      std::uint64_t b;
      static_assert(sizeof(b) == sizeof(v));
      std::memcpy(&b, &v, sizeof(b));
      return b;
    };
    const std::size_t nchunks = (total + n_ - 1) / n_;
    if (scratch.partial.size() < nchunks) {
      scratch.partial.resize(nchunks);
      scratch.noise_key.resize(nchunks);
      scratch.noise_draw.resize(nchunks);
    }
    std::size_t ci = 0;
    for (std::size_t start = 0; start < total; start += n_, ++ci) {
      const std::size_t len = std::min(n_, total - start);
      scratch.partial[ci] = chunk_partial(start, toff, len);
      toff += crosstalk ? len * len : len;
      std::uint64_t key = xl::numerics::hash_combine(
          effects->noise_seed, static_cast<std::uint64_t>(start));
      for (std::size_t j = 0; j < len; ++j) {
        key = xl::numerics::hash_combine(key, bits_of(a_mag[start + j]));
        key = xl::numerics::hash_combine(
            key, bits_of(detune[start + j]) ^ (neg[start + j] ? ~0ULL : 0ULL));
      }
      scratch.noise_key[ci] = key;
    }
    numerics::kernels::active_table().hash_gaussian_keys(
        scratch.noise_key.data(), nchunks, scratch.noise_draw.data());
    ci = 0;
    for (std::size_t start = 0; start < total; start += n_, ++ci) {
      const std::size_t len = std::min(n_, total - start);
      const double partial =
          scratch.partial[ci] + noise_std *
                                    std::sqrt(2.0 * static_cast<double>(len)) *
                                    scratch.noise_draw[ci];
      acc += requantized(partial, len);
    }
  } else {
    for (std::size_t start = 0; start < total; start += n_) {
      const std::size_t len = std::min(n_, total - start);
      acc += requantized(chunk_partial(start, toff, len), len);
      toff += crosstalk ? len * len : len;
    }
  }
  return acc;
}

}  // namespace xl::photonics
