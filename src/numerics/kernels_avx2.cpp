// AVX2+FMA kernel table.
//
// This is the only translation unit compiled with -mavx2 -mfma (and
// -ffp-contract=off, see below); nothing here runs unless kernels.cpp's
// resolve() has confirmed CPU support at runtime, so the rest of the binary
// stays baseline-ISA clean.
//
// Bit-identity with the scalar table is preserved by construction:
//   * lanes map to independent outputs (GEMM columns, VDP channels, RNG
//     samples) — no reduction is ever split across lanes;
//   * every lane executes the same mul/add/div/sub sequence as the scalar
//     reference. -ffp-contract=off is load-bearing: without it GCC fuses
//     _mm256_mul_pd + _mm256_add_pd into one-rounding FMA, which would break
//     the two-rounding scalar contract;
//   * cross-lane sums are extracted and accumulated in scalar index order;
//   * vsqrtpd and the u64->double conversion are exact; log/cos route
//     through the scalar libm calls, one lane at a time.
#include "numerics/kernels.hpp"

#if defined(XL_KERNELS_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "numerics/rng.hpp"  // scalar hash_gaussian/hash_combine for tails

namespace xl::numerics::kernels {
namespace {

// --- GEMM ------------------------------------------------------------------

/// One 4-column packed panel: lane j accumulates column 4p+j sequentially
/// over i (add chain per lane, two roundings per element).
inline __m256d panel_accumulate(const double* a, const double* panel,
                                std::size_t k) {
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < k; ++i) {
    const __m256d ai = _mm256_broadcast_sd(a + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(ai, _mm256_loadu_pd(panel + i * 4)));
  }
  return acc;
}

void gemm_row_panels_avx2(const double* a, const double* pack, std::size_t k,
                          std::size_t n_panels, double* out) {
  // Four panels (16 output columns) per pass: four independent add chains
  // hide the vaddpd latency; each chain is still strictly sequential over i.
  std::size_t p = 0;
  for (; p + 4 <= n_panels; p += 4) {
    const double* p0 = pack + (p + 0) * 4 * k;
    const double* p1 = pack + (p + 1) * 4 * k;
    const double* p2 = pack + (p + 2) * 4 * k;
    const double* p3 = pack + (p + 3) * 4 * k;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < k; ++i) {
      const __m256d ai = _mm256_broadcast_sd(a + i);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(ai, _mm256_loadu_pd(p0 + i * 4)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(ai, _mm256_loadu_pd(p1 + i * 4)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(ai, _mm256_loadu_pd(p2 + i * 4)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(ai, _mm256_loadu_pd(p3 + i * 4)));
    }
    _mm256_storeu_pd(out + (p + 0) * 4, a0);
    _mm256_storeu_pd(out + (p + 1) * 4, a1);
    _mm256_storeu_pd(out + (p + 2) * 4, a2);
    _mm256_storeu_pd(out + (p + 3) * 4, a3);
  }
  for (; p < n_panels; ++p) {
    _mm256_storeu_pd(out + p * 4, panel_accumulate(a, pack + p * 4 * k, k));
  }
}

// --- row |.| max -----------------------------------------------------------

double abs_max_avx2(const double* v, std::size_t n) {
  // |.| and max are exact operations, so lane order is free (non-NaN input
  // per the header contract).
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d m0 = _mm256_setzero_pd();
  __m256d m1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    m0 = _mm256_max_pd(m0, _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(v + i)));
    m1 = _mm256_max_pd(m1,
                       _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(v + i + 4)));
  }
  if (i + 4 <= n) {
    m0 = _mm256_max_pd(m0, _mm256_andnot_pd(sign_mask, _mm256_loadu_pd(v + i)));
    i += 4;
  }
  const __m256d m = _mm256_max_pd(m0, m1);
  const __m128d hi = _mm256_extractf128_pd(m, 1);
  __m128d best2 = _mm_max_pd(_mm256_castpd256_pd128(m), hi);
  best2 = _mm_max_sd(best2, _mm_unpackhi_pd(best2, best2));
  double best = _mm_cvtsd_f64(best2);
  for (; i < n; ++i) best = std::max(best, std::abs(v[i]));
  return best;
}

// --- balanced-PD D rows ----------------------------------------------------

/// Lane mask for the first `rem` (< 4) lanes of a ragged tail; masked lanes
/// are neither read nor written by maskload/maskstore.
inline __m256i tail_mask(std::size_t rem) {
  const auto r = static_cast<long long>(rem);
  return _mm256_set_epi64x(r > 3 ? -1 : 0, r > 2 ? -1 : 0, r > 1 ? -1 : 0,
                           r > 0 ? -1 : 0);
}

/// Lanes = 4 channels starting at i0 (the first `mask` lanes valid). Ring j's
/// column-major slice t[j*len + i0..] is a contiguous load and sel[j] is
/// lane-uniform, so each lane runs the scalar product sequence exactly.
inline void d_row_xtalk_lanes(const unsigned char* sel, const double* carry,
                              const double* idle, std::size_t len,
                              std::size_t i0, __m256i mask, double* d) {
  __m256d c = _mm256_maskload_pd(carry + i0, mask);
  __m256d t = _mm256_maskload_pd(idle + i0, mask);
  __m256d p = sel[0] ? t : c;
  __m256d n = sel[0] ? c : t;
  for (std::size_t j = 1; j < len; ++j) {
    c = _mm256_maskload_pd(carry + j * len + i0, mask);
    t = _mm256_maskload_pd(idle + j * len + i0, mask);
    if (sel[j]) {
      p = _mm256_mul_pd(p, t);
      n = _mm256_mul_pd(n, c);
    } else {
      p = _mm256_mul_pd(p, c);
      n = _mm256_mul_pd(n, t);
    }
  }
  _mm256_maskstore_pd(d + i0, mask, _mm256_sub_pd(p, n));
}

void d_row_xtalk_avx2(const unsigned char* sel, const double* carry,
                      const double* idle, std::size_t len, double* d) {
  const __m256i all = _mm256_set1_epi64x(-1);
  std::size_t i0 = 0;
  for (; i0 + 4 <= len; i0 += 4) {
    d_row_xtalk_lanes(sel, carry, idle, len, i0, all, d);
  }
  if (i0 < len) {
    d_row_xtalk_lanes(sel, carry, idle, len, i0, tail_mask(len - i0), d);
  }
}

void d_row_diag_avx2(const unsigned char* sel, const double* carry,
                     const double* idle, std::size_t len, double* d) {
  std::size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m256d c = _mm256_loadu_pd(carry + i);
    const __m256d t = _mm256_loadu_pd(idle + i);
    const __m256d to_neg = _mm256_castsi256_pd(_mm256_set_epi64x(
        sel[i + 3] ? -1 : 0, sel[i + 2] ? -1 : 0, sel[i + 1] ? -1 : 0,
        sel[i + 0] ? -1 : 0));
    _mm256_storeu_pd(d + i, _mm256_blendv_pd(_mm256_sub_pd(c, t),
                                             _mm256_sub_pd(t, c), to_neg));
  }
  for (; i < len; ++i) {
    d[i] = sel[i] ? idle[i] - carry[i] : carry[i] - idle[i];
  }
}

// --- counter-keyed gaussian sampler ----------------------------------------

void store4(double* buf, __m256d v) { _mm256_storeu_pd(buf, v); }

// 64-bit lane arithmetic AVX2 lacks natively: a*b mod 2^64 from 32x32->64
// partial products.
inline __m256i mullo64(__m256i x, __m256i y) {
  const __m256i x_hi = _mm256_srli_epi64(x, 32);
  const __m256i y_hi = _mm256_srli_epi64(y, 32);
  const __m256i lo = _mm256_mul_epu32(x, y);            // x_lo * y_lo (full 64)
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(x_hi, y),
                                         _mm256_mul_epu32(x, y_hi));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
}

inline __m256i splitmix64_v(__m256i x) {
  x = _mm256_add_epi64(x, _mm256_set1_epi64x(0x9E3779B97F4A7C15ULL));
  x = mullo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
              _mm256_set1_epi64x(0xBF58476D1CE4E5B9ULL));
  x = mullo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
              _mm256_set1_epi64x(0x94D049BB133111EBULL));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

inline __m256i hash_combine_v(__m256i h, __m256i v) {
  __m256i t = _mm256_add_epi64(v, _mm256_set1_epi64x(0x9E3779B97F4A7C15ULL));
  t = _mm256_add_epi64(t, _mm256_slli_epi64(h, 6));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(h, 2));
  return splitmix64_v(_mm256_xor_si256(h, t));
}

/// Exact u64 -> double for values < 2^53 (the >> 11 mantissae): split into
/// 32-bit halves, convert each exactly via the 2^52 bias trick, recombine —
/// every step is exact, so the result equals the scalar static_cast.
inline __m256d u64_small_to_pd(__m256i v) {
  const __m256d two52 = _mm256_set1_pd(0x1.0p52);
  const __m256i lo = _mm256_and_si256(v, _mm256_set1_epi64x(0xFFFFFFFFLL));
  const __m256i hi = _mm256_srli_epi64(v, 32);
  const __m256d dlo = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(lo, _mm256_castpd_si256(two52))), two52);
  const __m256d dhi = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_or_si256(hi, _mm256_castpd_si256(two52))), two52);
  return _mm256_add_pd(_mm256_mul_pd(dhi, _mm256_set1_pd(0x1.0p32)), dlo);
}

/// hash_unit over 4 lanes: top-53-bit mantissa scaled by 2^-53 (exact).
inline __m256d hash_unit_v(__m256i key) {
  const __m256i mant = _mm256_srli_epi64(splitmix64_v(key), 11);
  return _mm256_mul_pd(u64_small_to_pd(mant), _mm256_set1_pd(0x1.0p-53));
}

/// Box-Muller over 4 keyed lanes; must match numerics::hash_gaussian bit for
/// bit (kTau literal identical to rng.cpp's).
inline void gaussian4(__m256i keys, double* out) {
  constexpr double kTau = 6.283185307179586476925286766559;
  const __m256d u1 = hash_unit_v(hash_combine_v(keys, _mm256_set1_epi64x(1)));
  const __m256d u2 = hash_unit_v(hash_combine_v(keys, _mm256_set1_epi64x(2)));
  double lbuf[4];
  store4(lbuf, _mm256_sub_pd(_mm256_set1_pd(1.0), u1));
  for (double& l : lbuf) l = std::log(l);  // scalar libm, one lane at a time
  const __m256d r = _mm256_sqrt_pd(
      _mm256_mul_pd(_mm256_set1_pd(-2.0), _mm256_loadu_pd(lbuf)));
  double cbuf[4];
  store4(cbuf, _mm256_mul_pd(_mm256_set1_pd(kTau), u2));
  for (double& c : cbuf) c = std::cos(c);
  _mm256_storeu_pd(out, _mm256_mul_pd(r, _mm256_loadu_pd(cbuf)));
}

void hash_gaussian_keys_avx2(const std::uint64_t* keys, std::size_t n,
                             double* out) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    gaussian4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
              out + i);
  }
  for (; i < n; ++i) out[i] = hash_gaussian(keys[i]);
}

void hash_gaussian_n_avx2(std::uint64_t key, std::uint64_t base_counter,
                          std::size_t n, double* out) {
  const __m256i keyv = _mm256_set1_epi64x(static_cast<long long>(key));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const std::uint64_t c = base_counter + i;  // wraps mod 2^64, as scalar
    const __m256i ctr = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(c)),
        _mm256_set_epi64x(3, 2, 1, 0));
    gaussian4(hash_combine_v(keyv, ctr), out + i);
  }
  for (; i < n; ++i) {
    out[i] = hash_gaussian(
        hash_combine(key, base_counter + static_cast<std::uint64_t>(i)));
  }
}

constexpr KernelTable kAvx2Table = {
    gemm_row_panels_avx2,    abs_max_avx2,
    d_row_xtalk_avx2,        d_row_diag_avx2,
    hash_gaussian_keys_avx2, hash_gaussian_n_avx2,
    "avx2",
};

}  // namespace

namespace detail {
const KernelTable& avx2_table() noexcept { return kAvx2Table; }
}  // namespace detail

}  // namespace xl::numerics::kernels

#endif  // XL_KERNELS_AVX2
