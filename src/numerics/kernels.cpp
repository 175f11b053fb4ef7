// Scalar reference kernels + runtime ISA dispatch.
//
// The scalar implementations below are the oracle the AVX2 table is tested
// against (0 ulp, tests/test_kernels.cpp). Keep them boring: straight loops,
// no manual unrolling, no reassociation — their rounding order *defines* the
// contract.
#include "numerics/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "numerics/rng.hpp"

namespace xl::numerics::kernels {

#if defined(XL_KERNELS_AVX2)
namespace detail {
// Defined in kernels_avx2.cpp (the only TU compiled with -mavx2 -mfma).
const KernelTable& avx2_table() noexcept;
}  // namespace detail
#endif

namespace {

void gemm_row_panels_scalar(const double* a, const double* pack, std::size_t k,
                            std::size_t n_panels, double* out) {
  for (std::size_t p = 0; p < n_panels; ++p) {
    const double* panel = pack + p * 4 * k;
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const double ai = a[i];
      acc0 += ai * panel[i * 4 + 0];
      acc1 += ai * panel[i * 4 + 1];
      acc2 += ai * panel[i * 4 + 2];
      acc3 += ai * panel[i * 4 + 3];
    }
    out[p * 4 + 0] = acc0;
    out[p * 4 + 1] = acc1;
    out[p * 4 + 2] = acc2;
    out[p * 4 + 3] = acc3;
  }
}

double abs_max_scalar(const double* v, std::size_t n) {
  double best = 0.0;
  for (std::size_t i = 0; i < n; ++i) best = std::max(best, std::abs(v[i]));
  return best;
}

void d_row_xtalk_scalar(const unsigned char* sel, const double* carry,
                        const double* idle, std::size_t len, double* d) {
  for (std::size_t i = 0; i < len; ++i) {
    double p = sel[0] ? idle[i] : carry[i];
    double n = sel[0] ? carry[i] : idle[i];
    for (std::size_t j = 1; j < len; ++j) {
      const double c = carry[j * len + i];
      const double t = idle[j * len + i];
      p *= sel[j] ? t : c;
      n *= sel[j] ? c : t;
    }
    d[i] = p - n;
  }
}

void d_row_diag_scalar(const unsigned char* sel, const double* carry,
                       const double* idle, std::size_t len, double* d) {
  for (std::size_t i = 0; i < len; ++i) {
    d[i] = sel[i] ? idle[i] - carry[i] : carry[i] - idle[i];
  }
}

void hash_gaussian_keys_scalar(const std::uint64_t* keys, std::size_t n,
                               double* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = hash_gaussian(keys[i]);
}

void hash_gaussian_n_scalar(std::uint64_t key, std::uint64_t base_counter,
                            std::size_t n, double* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = hash_gaussian(
        hash_combine(key, base_counter + static_cast<std::uint64_t>(i)));
  }
}

constexpr KernelTable kScalarTable = {
    gemm_row_panels_scalar,    abs_max_scalar,
    d_row_xtalk_scalar,        d_row_diag_scalar,
    hash_gaussian_keys_scalar, hash_gaussian_n_scalar,
    "scalar",
};

// [[maybe_unused]]: only referenced when the AVX2 TU is compiled in.
[[maybe_unused]] bool simd_disabled_by_env() noexcept {
  const char* v = std::getenv("XL_DISABLE_SIMD");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

const KernelTable& resolve() noexcept {
#if defined(XL_KERNELS_AVX2)
  // The probe runs here, in a baseline-ISA TU, so no AVX2 instruction is
  // ever executed before the CPU has confirmed support.
  if (!simd_disabled_by_env() && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return detail::avx2_table();
  }
#endif
  return kScalarTable;
}

}  // namespace

const KernelTable& scalar_table() noexcept { return kScalarTable; }

const KernelTable& active_table() noexcept {
  static const KernelTable& table = resolve();
  return table;
}

Isa active_isa() noexcept {
  return &active_table() == &kScalarTable ? Isa::kScalar : Isa::kAvx2;
}

const char* active_isa_name() noexcept { return active_table().name; }

bool simd_compiled() noexcept {
#if defined(XL_KERNELS_AVX2)
  return true;
#else
  return false;
#endif
}

}  // namespace xl::numerics::kernels
