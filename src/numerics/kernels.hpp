// Runtime-dispatched SIMD kernels for the hot loops of every functional
// evaluation: the tiled GEMM dot kernel, the Lorentzian VDP transmission
// products, and the counter-keyed gaussian noise sampler.
//
// Dispatch model
// --------------
// Two kernel tables implement identical contracts:
//   * scalar_table() — the portable reference, always available. This IS the
//     bit-exact oracle: every SIMD kernel must reproduce it exactly.
//   * active_table() — resolved once per process: the AVX2+FMA table when the
//     binary carries the AVX2 translation unit, the CPU reports avx2+fma, and
//     XL_DISABLE_SIMD is not set in the environment; the scalar table
//     otherwise. (Build-time override: -DXL_DISABLE_SIMD=ON compiles the AVX2
//     TU out entirely.)
//
// Bit-identity contract
// ---------------------
// SIMD lanes are mapped to *independent* outputs (GEMM output columns, VDP
// channels, RNG samples), never across one output's reduction chain, so FP
// associativity is preserved by construction:
//   * GEMM: each output element accumulates sequentially over k in lane j,
//     with separate mul + add roundings (the AVX2 TU is compiled with
//     -ffp-contract=off so mul/add never fuse into one-rounding FMA).
//   * Balanced-PD D rows: lane = channel; the per-ring transmission product
//     runs sequentially within the lane.
//   * hash_gaussian_n: integer mixing, the uint64->double conversion, and all
//     elementwise arithmetic vectorize exactly (conversion and sqrt are
//     correctly-rounded by IEEE); log/cos go through the scalar libm calls so
//     every sample matches hash_gaussian() bit for bit.
// Consequently a 0-ulp parity tolerance is enforced by the tests
// (tests/test_kernels.cpp) rather than merely approximated.
//
// abs_max assumes non-NaN input (|.| and max are exact, order-free
// operations on finite doubles); all other kernels are order-exact for any
// input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace xl::numerics::kernels {

enum class Isa { kScalar, kAvx2 };

/// One ISA's implementation of the hot-loop kernels. All pointers non-null.
struct KernelTable {
  /// GEMM microkernel: out[c] = sum_i a[i] * col_c[i] for n_panels * 4
  /// packed output columns. `pack` holds 4-column panels: panel p covers
  /// columns [4p, 4p+4) at pack + p*4*k, interleaved element-major
  /// (pack[p*4*k + i*4 + j] = column (4p+j) element i). Each column's
  /// accumulation is strictly sequential over i with mul+add rounding.
  void (*gemm_row_panels)(const double* a, const double* pack, std::size_t k,
                          std::size_t n_panels, double* out);

  /// max_i |v[i]| (0 for n == 0). Exact for non-NaN input in any lane order.
  double (*abs_max)(const double* v, std::size_t n);

  /// Balanced-PD transmission differences of one bank chunk, crosstalk
  /// model. Tables are column-major per ring: t[j*len + i] is ring j's
  /// transmission at channel i when it carries the weight (`carry`) or sits
  /// idle (`idle`); sel[j] says ring j's weight went to the negative arm.
  ///   P_i = prod_j (sel[j] ? idle : carry)[j*len + i]
  ///   N_i = prod_j (sel[j] ? carry : idle)[j*len + i]
  ///   d[i] = P_i - N_i
  /// Each product starts from the j = 0 factor and multiplies the rest in
  /// ring order within channel i's lane.
  void (*d_row_xtalk)(const unsigned char* sel, const double* carry,
                      const double* idle, std::size_t len, double* d);

  /// Same difference without crosstalk (only the on-channel ring attenuates):
  ///   d[i] = (sel[i] ? idle : carry)[i] - (sel[i] ? carry : idle)[i].
  void (*d_row_diag)(const unsigned char* sel, const double* carry,
                     const double* idle, std::size_t len, double* d);

  /// Bulk standard-normal draws from explicit keys:
  ///   out[i] == hash_gaussian(keys[i]) bit for bit.
  void (*hash_gaussian_keys)(const std::uint64_t* keys, std::size_t n,
                             double* out);

  /// Counter-splittable bulk sampler:
  ///   out[i] == hash_gaussian(hash_combine(key, base_counter + i))
  /// bit for bit (counter addition wraps mod 2^64). A pure function of
  /// (key, counter): any slicing of [base, base+n) over any number of calls
  /// or threads yields the same samples.
  void (*hash_gaussian_n)(std::uint64_t key, std::uint64_t base_counter,
                          std::size_t n, double* out);

  const char* name;  ///< "scalar" or "avx2".
};

/// The portable reference table (always available, never dispatched away).
[[nodiscard]] const KernelTable& scalar_table() noexcept;

/// The table selected for this process (CPUID probe + XL_DISABLE_SIMD env
/// override, resolved once on first use, thread-safe).
[[nodiscard]] const KernelTable& active_table() noexcept;

[[nodiscard]] Isa active_isa() noexcept;
[[nodiscard]] const char* active_isa_name() noexcept;

/// true when the AVX2 translation unit was compiled into this binary
/// (regardless of the runtime CPU probe or env override).
[[nodiscard]] bool simd_compiled() noexcept;

}  // namespace xl::numerics::kernels
