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

  // Ring-major, like the carry and idle tables, so the builders' inner
  // loop over channels streams contiguous memory.
  sep_.resize(n_ * n_);
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t i = 0; i < n_; ++i) {
      sep_[j * n_ + i] = lambda_[i] - lambda_[j];
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
      phi_row_sum_[i] += crosstalk_coupling(sep_[j * n_ + i], delta_[j]);
    }
    max_phi_row_sum_ = std::max(max_phi_row_sum_, phi_row_sum_[i]);
  }
}

double MrBankTransferLut::detune_for_code(std::size_t ring, std::uint32_t code) const {
  return std::sqrt(delta_sq_.at(ring) * ratio_lut_.at(code));
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

// The two builders tabulate every per-(channel, ring) Lorentzian factor,
// 1 - full * delta_j^2 / (d^2 + delta_j^2) at d = lambda_i - (lambda_j -
// detune_j + drift_j). A ring's operating point takes one of two values per
// arm: the imprint detuning when it carries the weight ("carry") or
// resonance when the weight went to the other arm ("idle"); drift shifts
// both.
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
          const double d = sep_[j * n_ + i] + dj;
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
          const double d = sep_[j * n_ + i] + dj;
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

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  static_assert(sizeof(b) == sizeof(v));
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Sign flag folded into a non-negative double's bit pattern (sign bit
/// free), so one hash_combine word carries both.
std::uint64_t signed_bits(double magnitude, bool negative) {
  return bits_of(magnitude) ^ (negative ? ~0ULL : 0ULL);
}

/// DAC row scale: max |v|, exact for float or double input.
template <class T>
double abs_max(const T* v, std::size_t k) {
  double m = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    m = std::max(m, std::abs(static_cast<double>(v[i])));
  }
  return m;
}

}  // namespace

template <class T>
double MrBankTransferLut::pack_weight_row(const T* w, std::size_t k,
                                          double* det, unsigned char* neg,
                                          unsigned char* zero,
                                          std::uint64_t* key) const {
  const double scale = abs_max(w, k);
  if (scale == 0.0) return scale;
  for (std::size_t start = 0, c = 0; start < k; start += n_, ++c) {
    const std::size_t len = std::min(n_, k - start);
    std::uint64_t h = static_cast<std::uint64_t>(start);
    for (std::size_t j = 0; j < len; ++j) {
      const double wv = static_cast<double>(w[start + j]);
      const std::size_t i = start + j;
      det[i] = detune_for_code(j, quant_.encode(std::abs(wv) / scale));
      neg[i] = wv < 0.0 ? 1 : 0;
      zero[i] = wv == 0.0 ? 1 : 0;
      // A zero weight's detuning is +0.0; the low tag bit keeps it apart
      // from a nonzero weight that quantizes to code 0.
      h = numerics::hash_combine(
          h, signed_bits(det[i], neg[i] != 0) ^ (zero[i] ? 1ULL : 0ULL));
    }
    key[c] = h;
  }
  return scale;
}

template <class T>
double MrBankTransferLut::pack_activation_row(const T* x, std::size_t k,
                                              double* a, unsigned char* neg,
                                              unsigned char* mixed,
                                              std::uint64_t* key) const {
  const double scale = abs_max(x, k);
  if (scale == 0.0) return scale;
  for (std::size_t start = 0, c = 0; start < k; start += n_, ++c) {
    const std::size_t len = std::min(n_, k - start);
    unsigned char any_neg = 0;
    for (std::size_t i = start; i < start + len; ++i) {
      const double v = static_cast<double>(x[i]);
      a[i] = quant_.quantize(std::abs(v) / scale);
      neg[i] = v < 0.0 ? 1 : 0;
      any_neg |= neg[i];
    }
    mixed[c] = any_neg;
    if (key == nullptr) continue;
    std::uint64_t h = 0;
    for (std::size_t i = start; i < start + len; ++i) {
      h = numerics::hash_combine(h, signed_bits(a[i], neg[i] != 0));
    }
    key[c] = h;
  }
  return scale;
}

template double MrBankTransferLut::pack_weight_row<float>(
    const float*, std::size_t, double*, unsigned char*, unsigned char*,
    std::uint64_t*) const;
template double MrBankTransferLut::pack_weight_row<double>(
    const double*, std::size_t, double*, unsigned char*, unsigned char*,
    std::uint64_t*) const;
template double MrBankTransferLut::pack_activation_row<float>(
    const float*, std::size_t, double*, unsigned char*, unsigned char*,
    std::uint64_t*) const;
template double MrBankTransferLut::pack_activation_row<double>(
    const double*, std::size_t, double*, unsigned char*, unsigned char*,
    std::uint64_t*) const;

void MrBankTransferLut::build_d_row(const unsigned char* w_neg,
                                    std::size_t total, bool crosstalk,
                                    const double* carry, const double* idle,
                                    double* d) const {
  // Sign-free activations leave every weight on its own arm: sel = w_neg
  // (a zero weight is never negative, so it stays on the positive arm).
  for (std::size_t start = 0; start < total; start += n_) {
    chunk_d(w_neg + start, start, std::min(n_, total - start), crosstalk, carry,
            idle, d + start);
  }
}

void MrBankTransferLut::chunk_d(const unsigned char* sel, std::size_t start,
                                std::size_t len, bool crosstalk,
                                const double* carry, const double* idle,
                                double* d) const {
  // Every chunk before `start` is full: n^2 table entries with crosstalk.
  const auto& kt = numerics::kernels::active_table();
  if (crosstalk) {
    kt.d_row_xtalk(sel, carry + start * n_, idle + start * n_, len, d);
  } else {
    kt.d_row_diag(sel, carry + start, idle + start, len, d);
  }
}

void MrBankTransferLut::fit_scratch(VdpScratch& scratch,
                                    std::size_t total) const {
  if (scratch.d.size() < n_) {
    scratch.d.resize(n_);
    scratch.sel.resize(n_);
  }
  const std::size_t nchunks = chunks(total);
  if (scratch.partial.size() < nchunks) {
    scratch.partial.resize(nchunks);
    scratch.noise_key.resize(nchunks);
    scratch.noise_draw.resize(nchunks);
  }
}

double MrBankTransferLut::vdp_output(const VdpActivationRow& x,
                                     const VdpWeightRow& w, std::size_t k,
                                     const double* idle, bool crosstalk,
                                     const VdpEffects* effects,
                                     VdpScratch& scratch) const {
  const auto& kt = numerics::kernels::active_table();
  const double noise_std =
      effects != nullptr && effects->active() ? effects->noise_std : 0.0;
  // Partial-sum ADC: the balanced-PD output re-enters the digital domain
  // (via the VCSEL accumulation path) at the datapath resolution.
  const auto requantized = [this](double partial, std::size_t len) {
    const double norm = static_cast<double>(len);
    return (quant_.quantize(std::abs(partial) / norm) * norm) *
           (partial < 0.0 ? -1.0 : 1.0);
  };

  double* partial = scratch.partial.data();
  for (std::size_t start = 0, c = 0; start < k; start += n_, ++c) {
    const std::size_t len = std::min(n_, k - start);
    const double* d = w.d + start;
    if (x.mixed[c]) {
      // A negative activation moves its ring's weight to the other arm:
      // form this chunk's D from the same tables with the folded selects.
      unsigned char* sel = scratch.sel.data();
      for (std::size_t j = 0; j < len; ++j) {
        const std::size_t i = start + j;
        sel[j] = static_cast<unsigned char>(!w.zero[i] && (w.neg[i] != x.neg[i]));
      }
      chunk_d(sel, start, len, crosstalk, w.carry, idle, scratch.d.data());
      d = scratch.d.data();
    }
    // Chunk partial: sum_i a_i * D_i in index order.
    double sum = 0.0;
    for (std::size_t j = 0; j < len; ++j) sum += x.a[start + j] * d[j];
    partial[c] = sum;
  }

  const std::size_t nchunks = chunks(k);
  if (noise_std > 0.0) {
    // Balanced detection sums 2 * len independent per-channel noise currents
    // in quadrature. The draw is keyed on the operands, never on evaluation
    // order, so scalar, batched, and any executor schedule sample the same
    // perturbation.
    for (std::size_t c = 0; c < nchunks; ++c) {
      scratch.noise_key[c] = numerics::hash_combine(
          numerics::hash_combine(effects->noise_seed, w.key[c]), x.key[c]);
    }
    kt.hash_gaussian_keys(scratch.noise_key.data(), nchunks,
                          scratch.noise_draw.data());
  }
  double acc = 0.0;
  for (std::size_t start = 0, c = 0; start < k; start += n_, ++c) {
    const std::size_t len = std::min(n_, k - start);
    double p = partial[c];
    if (noise_std > 0.0) {
      p += noise_std * std::sqrt(2.0 * static_cast<double>(len)) *
           scratch.noise_draw[c];
    }
    acc += requantized(p, len);
  }
  return acc;
}

}  // namespace xl::photonics
