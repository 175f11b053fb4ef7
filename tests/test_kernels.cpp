// SIMD kernel-layer tests: the dispatched table must reproduce the scalar
// reference bit for bit (EXPECT_EQ, 0 ulp — see the contract in
// numerics/kernels.hpp), across randomized shapes covering every alignment
// of the problem size against the SIMD width. On hardware without AVX2 (or
// under XL_DISABLE_SIMD=1) active == scalar and the parity checks are
// trivially green; the matmul and VDP datapath reference checks still bite.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "numerics/gemm.hpp"
#include "numerics/kernels.hpp"
#include "numerics/matrix.hpp"
#include "numerics/rng.hpp"
#include "photonics/bank_lut.hpp"
#include "photonics/wdm.hpp"
#include "vdp_reference.hpp"

namespace xl::numerics::kernels {
namespace {

std::vector<double> random_vec(Rng& rng, std::size_t n, double lo, double hi,
                               double zero_fraction = 0.0) {
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.bernoulli(zero_fraction) ? 0.0 : rng.uniform(lo, hi);
  }
  return v;
}

TEST(KernelDispatch, TablesAreWellFormed) {
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  EXPECT_STREQ(s.name, "scalar");
  EXPECT_TRUE(a.name == std::string("scalar") || a.name == std::string("avx2"));
  EXPECT_STREQ(active_isa_name(), a.name);
  EXPECT_EQ(active_isa() == Isa::kScalar, &a == &s);
  if (!simd_compiled()) {
    EXPECT_EQ(active_isa(), Isa::kScalar);
  }
  // Make the exercised path visible in test logs.
  std::printf("[kernels] active table: %s (simd_compiled=%d)\n", a.name,
              simd_compiled() ? 1 : 0);
}

TEST(KernelParity, GemmRowPanels) {
  Rng rng(101);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{8}, std::size_t{33}, std::size_t{129}}) {
    for (const std::size_t panels :
         {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{9}, std::size_t{16}}) {
      const auto av = random_vec(rng, k, -2.0, 2.0);
      const auto pack = random_vec(rng, panels * 4 * k, -2.0, 2.0);
      std::vector<double> out_s(panels * 4, -1.0);
      std::vector<double> out_a(panels * 4, +1.0);
      s.gemm_row_panels(av.data(), pack.data(), k, panels, out_s.data());
      a.gemm_row_panels(av.data(), pack.data(), k, panels, out_a.data());
      for (std::size_t i = 0; i < out_s.size(); ++i) {
        EXPECT_EQ(out_s[i], out_a[i]) << "k=" << k << " panels=" << panels
                                      << " i=" << i;
      }
    }
  }
}

TEST(KernelParity, AbsMax) {
  Rng rng(202);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (std::size_t n = 0; n <= 67; ++n) {
    const auto v = random_vec(rng, n, -5.0, 5.0, 0.1);
    EXPECT_EQ(s.abs_max(v.data(), n), a.abs_max(v.data(), n)) << "n=" << n;
  }
  // Max sitting in every lane position, incl. a negative extremum.
  for (std::size_t pos = 0; pos < 12; ++pos) {
    std::vector<double> v(12, 0.25);
    v[pos] = -7.5;
    EXPECT_EQ(s.abs_max(v.data(), v.size()), a.abs_max(v.data(), v.size()));
    EXPECT_EQ(a.abs_max(v.data(), v.size()), 7.5);
  }
}

TEST(KernelParity, DRowXtalk) {
  Rng rng(1010);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (std::size_t len = 0; len <= 23; ++len) {
    const auto carry = random_vec(rng, len * len, 0.2, 1.0);
    const auto idle = random_vec(rng, len * len, 0.2, 1.0);
    std::vector<unsigned char> sel(len);
    for (auto& sb : sel) sb = rng.bernoulli(0.5) ? 1 : 0;
    std::vector<double> d_s(len, -1.0);
    std::vector<double> d_a(len, +1.0);
    s.d_row_xtalk(sel.data(), carry.data(), idle.data(), len, d_s.data());
    a.d_row_xtalk(sel.data(), carry.data(), idle.data(), len, d_a.data());
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(d_s[i], d_a[i]) << "len=" << len << " i=" << i;
    }
  }
}

TEST(KernelParity, DRowDiag) {
  Rng rng(909);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (std::size_t len = 0; len <= 35; ++len) {
    const auto carry = random_vec(rng, len, 0.2, 1.0);
    const auto idle = random_vec(rng, len, 0.2, 1.0);
    std::vector<unsigned char> sel(len);
    for (auto& sb : sel) sb = rng.bernoulli(0.5) ? 1 : 0;
    std::vector<double> d_s(len, -1.0);
    std::vector<double> d_a(len, +1.0);
    s.d_row_diag(sel.data(), carry.data(), idle.data(), len, d_s.data());
    a.d_row_diag(sel.data(), carry.data(), idle.data(), len, d_a.data());
    for (std::size_t i = 0; i < len; ++i) {
      EXPECT_EQ(d_s[i], d_a[i]) << "len=" << len << " i=" << i;
      const double p = sel[i] ? idle[i] : carry[i];
      const double n = sel[i] ? carry[i] : idle[i];
      EXPECT_EQ(d_s[i], p - n) << "len=" << len << " i=" << i;
    }
  }
}

TEST(KernelParity, HashGaussianKeys) {
  Rng rng(505);
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                              std::size_t{7}, std::size_t{64}, std::size_t{251}}) {
    std::vector<std::uint64_t> keys(n);
    for (auto& kk : keys) {
      kk = static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 62)) * 3u;
    }
    std::vector<double> out_s(n);
    std::vector<double> out_a(n);
    s.hash_gaussian_keys(keys.data(), n, out_s.data());
    a.hash_gaussian_keys(keys.data(), n, out_a.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out_s[i], out_a[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelParity, HashGaussianN) {
  const KernelTable& s = scalar_table();
  const KernelTable& a = active_table();
  for (const std::uint64_t base : {std::uint64_t{0}, std::uint64_t{12345},
                                   ~std::uint64_t{0} - 2}) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{6}, std::size_t{129}}) {
      std::vector<double> out_s(n);
      std::vector<double> out_a(n);
      s.hash_gaussian_n(0xFEEDFACE, base, n, out_s.data());
      a.hash_gaussian_n(0xFEEDFACE, base, n, out_a.data());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out_s[i], out_a[i]) << "base=" << base << " n=" << n
                                      << " i=" << i;
      }
    }
  }
}

// --- dispatched entry points vs naive references -----------------------------

TEST(KernelParity, MatmulTransposedMatchesNaiveAndIsTileInvariant) {
  Rng rng(606);
  for (const auto [m, n, k] :
       {std::array<std::size_t, 3>{1, 1, 1}, std::array<std::size_t, 3>{3, 5, 7},
        std::array<std::size_t, 3>{8, 16, 32},
        std::array<std::size_t, 3>{17, 23, 41},
        std::array<std::size_t, 3>{70, 33, 19}}) {
    Matrix a(m, k);
    Matrix b(n, k);
    for (std::size_t r = 0; r < m; ++r)
      for (std::size_t i = 0; i < k; ++i) a(r, i) = rng.uniform(-1.0, 1.0);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t i = 0; i < k; ++i) b(r, i) = rng.uniform(-1.0, 1.0);
    const Matrix c = matmul_transposed(a, b);
    // Naive reference: the historical scalar loop — strictly sequential
    // accumulation over k per output element. Must match bit for bit.
    for (std::size_t r = 0; r < m; ++r) {
      for (std::size_t col = 0; col < n; ++col) {
        double acc = 0.0;
        for (std::size_t i = 0; i < k; ++i) acc += a(r, i) * b(col, i);
        EXPECT_EQ(c(r, col), acc) << "m=" << m << " n=" << n << " k=" << k
                                  << " r=" << r << " col=" << col;
      }
    }
    // Tiling must not affect a single bit either.
    for (const std::size_t tile : {std::size_t{1}, std::size_t{5}, std::size_t{64}}) {
      const Matrix ct = matmul_transposed(a, b, tile);
      for (std::size_t r = 0; r < m; ++r)
        for (std::size_t col = 0; col < n; ++col)
          EXPECT_EQ(c(r, col), ct(r, col)) << "tile=" << tile;
    }
  }
}

TEST(KernelParity, RowAbsMaxMatchesNaive) {
  Rng rng(707);
  Matrix m(9, 37);
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rng.uniform(-4.0, 4.0);
  const Vector got = row_abs_max(m);
  ASSERT_EQ(got.size(), m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double best = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c)
      best = std::max(best, std::abs(m(r, c)));
    EXPECT_EQ(got[r], best) << "r=" << r;
  }
}

// --- the chunked VDP datapath vs its references ------------------------------

class VdpDatapath : public ::testing::Test {
 protected:
  static constexpr std::size_t kBank = 8;
  static constexpr double kQ = 8000.0;
  static constexpr double kErDb = 15.0;
  static constexpr int kBits = 8;

  VdpDatapath()
      : grid_(kBank, 0.8), lut_(grid_, kQ, kErDb, kBits), ref_(grid_, kQ, kErDb, kBits) {}

  /// One output through the library: the LUT's operand packing, tables,
  /// sign-free D row and vdp_output. `force_mixed` marks every chunk as
  /// holding a negative activation, so each D is formed on the fly.
  double lut_dot(std::span<const double> x, std::span<const double> w,
                 bool crosstalk, const photonics::VdpEffects* fx,
                 bool force_mixed = false) const {
    const std::size_t k = x.size();
    const std::size_t chunks = lut_.chunks(k);
    std::vector<double> a(k);
    std::vector<double> det(k);
    std::vector<unsigned char> x_neg(k);
    std::vector<unsigned char> w_neg(k);
    std::vector<unsigned char> w_zero(k);
    std::vector<unsigned char> mixed(chunks);
    std::vector<std::uint64_t> x_key(chunks);
    std::vector<std::uint64_t> w_key(chunks);
    const double sx = lut_.pack_activation_row(x.data(), k, a.data(), x_neg.data(),
                                               mixed.data(), x_key.data());
    const double sw = lut_.pack_weight_row(w.data(), k, det.data(), w_neg.data(),
                                           w_zero.data(), w_key.data());
    if (force_mixed) std::fill(mixed.begin(), mixed.end(), 1);
    const std::size_t arm = lut_.arm_table_elems(k, crosstalk);
    std::vector<double> idle(arm);
    std::vector<double> carry(arm + k);
    lut_.build_idle_table(k, crosstalk, fx, idle.data());
    lut_.build_carry_table(det, crosstalk, fx, carry.data());
    lut_.build_d_row(w_neg.data(), k, crosstalk, carry.data(), idle.data(),
                     carry.data() + arm);
    photonics::VdpScratch scratch;
    lut_.fit_scratch(scratch, k);
    const photonics::VdpActivationRow xr{a.data(), x_neg.data(), mixed.data(),
                                         x_key.data()};
    const photonics::VdpWeightRow wr{w_neg.data(), w_zero.data(), w_key.data(),
                                     carry.data(), carry.data() + arm};
    return lut_.vdp_output(xr, wr, k, idle.data(), crosstalk, fx, scratch) * sx * sw;
  }

  /// The historical arm sum (before D rows): each channel's power starts
  /// from a[i] and multiplies the ring factors in, and the two arms are
  /// summed separately — re-derived from the Lorentzian, not the tables.
  double historical_arm_sum(std::span<const double> a, std::span<const double> shift,
                            bool crosstalk) const {
    const std::size_t len = a.size();
    double sum = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      if (!crosstalk) {
        sum += a[i] * ref_.lorentzian(shift[i], i);
        continue;
      }
      double power = a[i];
      if (power == 0.0) continue;
      for (std::size_t j = 0; j < len; ++j) {
        power *= ref_.lorentzian((ref_.lambda(i) - ref_.lambda(j)) + shift[j], j);
      }
      sum += power;
    }
    return sum;
  }

  photonics::WavelengthGrid grid_;
  photonics::MrBankTransferLut lut_;
  xl::testing::VdpReference ref_;
};

// The D-row contract changes the rounding order of every chunk partial. The
// change stays within c * n * eps * sum_i a_i (P_i + N_i) of the historical
// order (first-order error of both orders, c = 4), for every chunk length,
// sign pattern, drift and crosstalk setting.
TEST_F(VdpDatapath, PartialsStayWithinRoundingBoundOfHistoricalOrder) {
  Rng rng(808);
  const KernelTable& kt = active_table();
  std::vector<double> drift(kBank);
  for (double& d : drift) d = rng.uniform(-0.02, 0.02);
  constexpr double kEps = 0x1.0p-52;
  std::size_t differ = 0;
  std::size_t total = 0;
  for (int rep = 0; rep < 40; ++rep) {
    for (std::size_t len = 1; len <= kBank; ++len) {
      const auto a = random_vec(rng, len, 0.0, 1.0, 0.15);
      std::vector<double> det(len);
      std::vector<unsigned char> sel(len);
      for (std::size_t j = 0; j < len; ++j) {
        det[j] = ref_.detune(j, static_cast<std::uint32_t>(rng.uniform_int(0, 255)));
        sel[j] = rng.bernoulli(0.5) ? 1 : 0;
      }
      for (const bool crosstalk : {false, true}) {
        for (const bool with_drift : {false, true}) {
          photonics::VdpEffects fx;
          if (with_drift) fx.ring_drift_nm = drift;
          const std::size_t arm = lut_.arm_table_elems(len, crosstalk);
          std::vector<double> carry(arm);
          std::vector<double> idle(arm);
          lut_.build_carry_table(det, crosstalk, &fx, carry.data());
          lut_.build_idle_table(len, crosstalk, &fx, idle.data());
          std::vector<double> d(len);
          if (crosstalk) {
            kt.d_row_xtalk(sel.data(), carry.data(), idle.data(), len, d.data());
          } else {
            kt.d_row_diag(sel.data(), carry.data(), idle.data(), len, d.data());
          }
          double got = 0.0;
          for (std::size_t i = 0; i < len; ++i) got += a[i] * d[i];

          std::vector<double> pos(len);
          std::vector<double> neg(len);
          for (std::size_t j = 0; j < len; ++j) {
            const double dr = with_drift ? drift[j] : 0.0;
            pos[j] = sel[j] ? -dr : det[j] - dr;
            neg[j] = sel[j] ? det[j] - dr : -dr;
          }
          const double historical = historical_arm_sum(a, pos, crosstalk) -
                                    historical_arm_sum(a, neg, crosstalk);
          // sum_i a_i (P_i + N_i) from the same tables.
          double mass = 0.0;
          for (std::size_t i = 0; i < len; ++i) {
            double p = 1.0;
            double n = 1.0;
            for (std::size_t j = 0; j < (crosstalk ? len : 1); ++j) {
              const std::size_t t = crosstalk ? j * len + i : i;
              const bool s = crosstalk ? sel[j] != 0 : sel[i] != 0;
              p *= s ? idle[t] : carry[t];
              n *= s ? carry[t] : idle[t];
            }
            mass += a[i] * (p + n);
          }
          const double bound = 4.0 * static_cast<double>(len) * kEps * mass;
          EXPECT_LE(std::abs(got - historical), bound)
              << "rep=" << rep << " len=" << len << " xtalk=" << crosstalk
              << " drift=" << with_drift;
          differ += got != historical ? 1 : 0;
          total += 1;
        }
      }
    }
  }
  std::printf("[vdp] %zu of %zu partials moved off the historical order\n", differ,
              total);
}

TEST_F(VdpDatapath, MatchesIndependentReferenceAcrossEffectCombinations) {
  Rng rng(909);
  std::vector<double> drift(kBank);
  for (double& d : drift) d = rng.uniform(-0.02, 0.02);
  // total = 21: two full chunks + a ragged 5-element tail.
  const std::size_t total = 21;
  for (int rep = 0; rep < 6; ++rep) {
    const auto x = random_vec(rng, total, rep % 2 == 0 ? -1.0 : 0.0, 1.0, 0.15);
    const auto w = random_vec(rng, total, -1.0, 1.0, 0.15);
    for (const bool crosstalk : {false, true}) {
      for (const bool with_drift : {false, true}) {
        for (const double noise_std : {0.0, 0.05}) {
          photonics::VdpEffects fx;
          if (with_drift) fx.ring_drift_nm = drift;
          fx.noise_std = noise_std;
          fx.noise_seed = 0xC0FFEE;
          const photonics::VdpEffects* fxp =
              (with_drift || noise_std > 0.0) ? &fx : nullptr;
          EXPECT_EQ(lut_dot(x, w, crosstalk, fxp), ref_.dot(x, w, crosstalk, fxp))
              << "rep=" << rep << " xtalk=" << crosstalk
              << " drift=" << with_drift << " noise=" << noise_std;
        }
      }
    }
  }
}

// The library's sign-free D rows equal the reference's Lorentzian products
// bit for bit (ring order, first factor first), for every chunk length —
// the requantized outputs alone would hide a few-ulp change here.
TEST_F(VdpDatapath, DRowsMatchLorentzianProducts) {
  Rng rng(1313);
  std::vector<double> drift(kBank);
  for (double& d : drift) d = rng.uniform(-0.02, 0.02);
  const std::size_t total = 21;  // Chunks of 8, 8, 5.
  for (int rep = 0; rep < 6; ++rep) {
    std::vector<double> det(total);
    std::vector<unsigned char> w_neg(total);
    for (std::size_t i = 0; i < total; ++i) {
      det[i] = ref_.detune(i % kBank, static_cast<std::uint32_t>(rng.uniform_int(0, 255)));
      w_neg[i] = rng.bernoulli(0.5) ? 1 : 0;
    }
    for (const bool crosstalk : {false, true}) {
      for (const bool with_drift : {false, true}) {
        photonics::VdpEffects fx;
        if (with_drift) fx.ring_drift_nm = drift;
        const std::size_t arm = lut_.arm_table_elems(total, crosstalk);
        std::vector<double> carry(arm);
        std::vector<double> idle(arm);
        std::vector<double> d(total);
        lut_.build_carry_table(det, crosstalk, &fx, carry.data());
        lut_.build_idle_table(total, crosstalk, &fx, idle.data());
        lut_.build_d_row(w_neg.data(), total, crosstalk, carry.data(), idle.data(),
                         d.data());
        for (std::size_t start = 0; start < total; start += kBank) {
          const std::size_t len = std::min(kBank, total - start);
          const std::vector<bool> sel(w_neg.begin() + static_cast<std::ptrdiff_t>(start),
                                      w_neg.begin() + static_cast<std::ptrdiff_t>(start + len));
          const std::vector<double> want =
              ref_.chunk_d({det.data() + start, len}, sel, crosstalk,
                           with_drift ? drift.data() : nullptr);
          for (std::size_t i = 0; i < len; ++i) {
            EXPECT_EQ(d[start + i], want[i]) << "rep=" << rep << " xtalk=" << crosstalk
                                             << " drift=" << with_drift
                                             << " i=" << start + i;
          }
        }
      }
    }
  }
}

// A chunk flagged as holding a negative activation forms its D on the fly
// from the same tables; with sign-free activations that D must equal the
// cached sign-free row bit for bit.
TEST_F(VdpDatapath, OnTheFlyDEqualsCachedDForSignFreeChunks) {
  Rng rng(1212);
  std::vector<double> drift(kBank);
  for (double& d : drift) d = rng.uniform(-0.02, 0.02);
  photonics::VdpEffects fx;
  fx.ring_drift_nm = drift;
  fx.noise_std = 0.05;
  fx.noise_seed = 7;
  for (int rep = 0; rep < 8; ++rep) {
    const auto x = random_vec(rng, 19, 0.0, 1.0, 0.2);
    const auto w = random_vec(rng, 19, -1.0, 1.0, 0.2);
    for (const bool crosstalk : {false, true}) {
      EXPECT_EQ(lut_dot(x, w, crosstalk, &fx, true), lut_dot(x, w, crosstalk, &fx))
          << "rep=" << rep << " xtalk=" << crosstalk;
    }
  }
}

}  // namespace
}  // namespace xl::numerics::kernels
