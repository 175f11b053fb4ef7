// Independent scalar reference of the photonic VDP datapath's numeric
// contract, derived straight from the Lorentzian ring model (grid
// wavelengths, loaded Q, extinction ratio, DAC resolution) rather than from
// photonics::MrBankTransferLut's tables or kernels. Tests hold the library's
// scalar, batched and planned paths to it bit for bit.
//
// Contract, per bank chunk of n rings starting at element `start`:
//   * operands: a_i = Q(|x_i| / max|x|); weight code c_i = encode(|w_i| /
//     max|w|), imprint detuning sqrt(delta_j^2 * max(0, full/drop - 1)) with
//     drop = 1 - clamp(decode(c_i), t_min, 1 - 1e-9);
//   * sel_j = (w_j != 0) && (sign(w_j) != sign(x_j)) routes ring j's weight
//     to the negative arm; the other arm holds the ring on resonance;
//   * transmissions T = 1 - full * delta_j^2 / (d^2 + delta_j^2) with
//     d = (lambda_i - lambda_j) + (detune_j - drift_j) under crosstalk
//     (every ring j attenuates channel i), d = detune_i - drift_i without;
//   * D_i = P_i - N_i, each arm product formed in ring order from the first
//     factor; partial = sum_i a_i * D_i from +0.0 in index order;
//   * PD noise: partial += noise_std * sqrt(2 len) * hash_gaussian(key),
//     key = combine(combine(seed, h_w), h_act), h_w the combine chain from
//     `start` over each weight's detuning bits (sign-flipped when negative,
//     low bit tagged when exactly zero), h_act the chain from 0 over each
//     activation's magnitude bits (sign-flipped when negative);
//   * requantize q(|p| / len) * len with p's sign, sum over chunks, scale by
//     max|x| * max|w|.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "numerics/matrix.hpp"
#include "numerics/rng.hpp"
#include "photonics/bank_lut.hpp"
#include "photonics/devices.hpp"
#include "photonics/units.hpp"
#include "photonics/wdm.hpp"

namespace xl::testing {

class VdpReference {
 public:
  VdpReference(const photonics::WavelengthGrid& grid, double q_factor,
               double extinction_ratio_db, int resolution_bits)
      : lambda_(grid.wavelengths()), quant_(resolution_bits) {
    t_min_ = photonics::db_to_ratio(-extinction_ratio_db);
    full_ = 1.0 - t_min_;
    for (const double l : lambda_) {
      const double delta = l / (2.0 * q_factor);
      delta_sq_.push_back(delta * delta);
    }
  }

  /// One photonic dot product under crosstalk flag `crosstalk` and the
  /// effects view `fx` (nullptr = none).
  [[nodiscard]] double dot(std::span<const double> x, std::span<const double> w,
                           bool crosstalk,
                           const photonics::VdpEffects* fx) const {
    double sx = 0.0;
    double sw = 0.0;
    for (const double v : x) sx = std::max(sx, std::abs(v));
    for (const double v : w) sw = std::max(sw, std::abs(v));
    if (sx == 0.0 || sw == 0.0) return 0.0;
    const std::size_t n = lambda_.size();
    const std::size_t total = x.size();
    const double* drift = nullptr;
    double noise_std = 0.0;
    if (fx != nullptr && fx->active()) {
      if (!fx->ring_drift_nm.empty()) drift = fx->ring_drift_nm.data();
      noise_std = fx->noise_std;
    }

    double acc = 0.0;
    for (std::size_t start = 0; start < total; start += n) {
      const std::size_t len = std::min(n, total - start);
      std::vector<double> a(len);
      std::vector<double> det(len);
      std::vector<bool> sel(len);
      std::uint64_t h_w = start;
      std::uint64_t h_act = 0;
      for (std::size_t j = 0; j < len; ++j) {
        const double xv = x[start + j];
        const double wv = w[start + j];
        a[j] = quant_.quantize(std::abs(xv) / sx);
        det[j] = detune(j, quant_.encode(std::abs(wv) / sw));
        sel[j] = wv != 0.0 && ((wv < 0.0) != (xv < 0.0));
        h_w = numerics::hash_combine(
            h_w, bits(det[j]) ^ (wv < 0.0 ? ~0ULL : 0ULL) ^ (wv == 0.0 ? 1ULL : 0ULL));
        h_act = numerics::hash_combine(h_act, bits(a[j]) ^ (xv < 0.0 ? ~0ULL : 0ULL));
      }
      const std::vector<double> d = chunk_d(det, sel, crosstalk, drift);
      double partial = 0.0;
      for (std::size_t i = 0; i < len; ++i) partial += a[i] * d[i];
      if (noise_std > 0.0) {
        const std::uint64_t key = numerics::hash_combine(
            numerics::hash_combine(fx->noise_seed, h_w), h_act);
        partial += noise_std * std::sqrt(2.0 * static_cast<double>(len)) *
                   numerics::hash_gaussian(key);
      }
      const double norm = static_cast<double>(len);
      acc += (quant_.quantize(std::abs(partial) / norm) * norm) *
             (partial < 0.0 ? -1.0 : 1.0);
    }
    return acc * sx * sw;
  }

  /// Y = X * W^T, one reference dot product per element.
  [[nodiscard]] numerics::Matrix matmul(const numerics::Matrix& x,
                                        const numerics::Matrix& w, bool crosstalk,
                                        const photonics::VdpEffects* fx) const {
    numerics::Matrix y(x.rows(), w.rows());
    for (std::size_t b = 0; b < x.rows(); ++b) {
      for (std::size_t o = 0; o < w.rows(); ++o) {
        y(b, o) = dot(x.row(b), w.row(o), crosstalk, fx);
      }
    }
    return y;
  }

  /// D_i = P_i - N_i of one chunk whose ring j carries detuning det[j],
  /// its weight on the negative arm where sel[j]; `drift` per ring or null.
  [[nodiscard]] std::vector<double> chunk_d(std::span<const double> det,
                                            const std::vector<bool>& sel,
                                            bool crosstalk,
                                            const double* drift) const {
    const std::size_t len = det.size();
    std::vector<double> d(len);
    for (std::size_t i = 0; i < len; ++i) {
      double p = 0.0;
      double m = 0.0;
      if (crosstalk) {
        for (std::size_t j = 0; j < len; ++j) {
          const double sep = lambda_[i] - lambda_[j];
          const double tc = lorentzian(sep + shift(det[j], drift, j), j);
          const double ti = lorentzian(sep + shift(0.0, drift, j), j);
          const double fp = sel[j] ? ti : tc;
          const double fn = sel[j] ? tc : ti;
          p = j == 0 ? fp : p * fp;
          m = j == 0 ? fn : m * fn;
        }
      } else {
        const double tc = lorentzian(shift(det[i], drift, i), i);
        const double ti = lorentzian(shift(0.0, drift, i), i);
        p = sel[i] ? ti : tc;
        m = sel[i] ? tc : ti;
      }
      d[i] = p - m;
    }
    return d;
  }

  [[nodiscard]] double lambda(std::size_t ring) const { return lambda_.at(ring); }

  /// Ring transmission at detuning d from its (drifted) resonance.
  [[nodiscard]] double lorentzian(double d, std::size_t ring) const {
    return 1.0 - full_ * delta_sq_[ring] / (d * d + delta_sq_[ring]);
  }

  /// Imprint detuning of DAC `code` on ring `ring` (the inverse Lorentzian).
  [[nodiscard]] double detune(std::size_t ring, std::uint32_t code) const {
    const double target = std::clamp(quant_.decode(code), t_min_, 1.0 - 1e-9);
    const double drop = 1.0 - target;
    return std::sqrt(delta_sq_[ring] * std::max(0.0, full_ / drop - 1.0));
  }

 private:
  static double shift(double det, const double* drift, std::size_t ring) {
    return drift == nullptr ? det : det - drift[ring];
  }
  static std::uint64_t bits(double v) {
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  }

  std::vector<double> lambda_;
  std::vector<double> delta_sq_;
  photonics::UniformQuantizer quant_;
  double t_min_ = 0.0;
  double full_ = 0.0;
};

}  // namespace xl::testing
