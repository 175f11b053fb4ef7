// Tiled dense matrix kernels backing the batched photonic execution engine.
//
// The engine's GEMM shape is Y = X * W^T with X = (batch x K) activations and
// W = (outputs x K) weight rows, both row-major — so the transposed-B product
// walks contiguous memory on every operand. A cache-blocked exact kernel is
// provided for the electronic reference path, plus the per-row max-magnitude
// reduction the DAC normalization stage needs.
//
// Both entry points route through the runtime-dispatched ISA kernel layer
// (numerics/kernels.hpp): an AVX2+FMA microkernel over packed 4-column
// B panels when the CPU supports it, the scalar reference otherwise.
// Results are bit-identical across ISAs (and to the historical unpacked
// scalar loop): every output element accumulates strictly sequentially
// over K in its own SIMD lane.
#pragma once

#include <cstddef>

#include "numerics/matrix.hpp"

namespace xl::numerics {

/// Per-row max |.| of a row-major matrix (the DAC row-normalization kernel).
/// Returns a vector of m.rows() entries; zero rows yield 0.
[[nodiscard]] Vector row_abs_max(const Matrix& m);

/// C = A * B^T: A is (m x k), B is (n x k), C is (m x n). Throws
/// std::invalid_argument on inner-dimension mismatch. Parallelized over row
/// tiles on the xl::exec pool (`tile` rows of A per tile; 0 selects the default of
/// 64, documented in the implementation) — results are deterministic and
/// tile-independent (each output element is owned by exactly one iteration
/// and accumulates in a fixed order).
[[nodiscard]] Matrix matmul_transposed(const Matrix& a, const Matrix& b,
                                       std::size_t tile = 64);

}  // namespace xl::numerics
