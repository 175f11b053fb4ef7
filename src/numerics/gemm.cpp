#include "numerics/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "exec/exec.hpp"
#include "numerics/aligned.hpp"
#include "numerics/kernels.hpp"

namespace xl::numerics {

Vector row_abs_max(const Matrix& m) {
  const kernels::KernelTable& kt = kernels::active_table();
  Vector out(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const std::span<const double> row = m.row(r);
    out[r] = kt.abs_max(row.data(), row.size());
  }
  return out;
}

Matrix matmul_transposed(const Matrix& a, const Matrix& b, std::size_t tile) {
  if (a.cols() != b.cols()) {
    throw std::invalid_argument("matmul_transposed: inner dimension mismatch");
  }
  // Default tile = 64 rows of A per work item: wide enough that the packed-B
  // streaming below is amortized across many dot products per executor tile,
  // narrow enough to load-balance small batches across threads. (Column
  // blocking of the pre-kernel implementation is superseded by panel
  // packing: B is read once into a cache-friendly interleaved layout.)
  if (tile == 0) tile = 64;
  const std::size_t m = a.rows();
  const std::size_t n = b.rows();
  const std::size_t k = a.cols();
  Matrix c(m, n);
  if (m == 0 || n == 0) return c;

  const kernels::KernelTable& kt = kernels::active_table();

  // Pack B's rows (the output columns) into 4-column interleaved panels,
  // once per GEMM, shared read-only by every thread. Each output element
  // still accumulates strictly sequentially over k, so results are
  // bit-identical to the unpacked scalar loop.
  const std::size_t n_panels = n / 4;
  AlignedVector pack(n_panels * 4 * k);
  for (std::size_t p = 0; p < n_panels; ++p) {
    double* panel = pack.data() + p * 4 * k;
    for (std::size_t j = 0; j < 4; ++j) {
      const std::span<const double> brow = b.row(p * 4 + j);
      for (std::size_t i = 0; i < k; ++i) panel[i * 4 + j] = brow[i];
    }
  }

  const std::size_t row_tiles = (m + tile - 1) / tile;
  // Each work item is one `tile`-row panel of C; rows never overlap, so the
  // tiles write disjoint output and results are bit-identical under any
  // threading (the per-element k accumulation is strictly sequential).
  const auto run_row_tile = [&](std::size_t rt) {
    const std::size_t r0 = rt * tile;
    const std::size_t r1 = std::min(m, r0 + tile);
    for (std::size_t r = r0; r < r1; ++r) {
      const std::span<const double> arow = a.row(r);
      if (n_panels > 0) {
        kt.gemm_row_panels(arow.data(), pack.data(), k, n_panels, &c(r, 0));
      }
    }
    // Tail columns (n % 4): scalar dot per column, with the b-row span
    // hoisted out of the row loop instead of re-materialized per element.
    for (std::size_t col = n_panels * 4; col < n; ++col) {
      const std::span<const double> brow = b.row(col);
      for (std::size_t r = r0; r < r1; ++r) {
        const std::span<const double> arow = a.row(r);
        double acc = 0.0;
        for (std::size_t i = 0; i < k; ++i) acc += arow[i] * brow[i];
        c(r, col) = acc;
      }
    }
  };
  exec::parallel_for(0, row_tiles, 1,
                     [&](std::size_t t0, std::size_t t1, std::size_t) {
                       for (std::size_t rt = t0; rt < t1; ++rt) run_row_tile(rt);
                     });
  return c;
}

}  // namespace xl::numerics
