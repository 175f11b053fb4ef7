// im2col lowering shared by Conv2d and the batched photonic engine.
//
// A convolution over an NCHW input is a GEMM over patches: output pixel
// (n, oy, ox) is the dot product of patch row (n, oy, ox) with filter row
// co. Row order is (n, oy, ox) major-to-minor and column order (ci, ky, kx),
// matching the (C_out, C_in, k, k) weight layout — so conv forward becomes
// patches * W^T plus bias, and the photonic engine can hand whole batches to
// one photonic_matmul instead of issuing per-pixel scalar dot products
// (Section IV-C.1's lowering, batched).
#pragma once

#include <cstdint>
#include <vector>

#include "dnn/tensor.hpp"

namespace xl::dnn {

/// Conv2d geometry: square kernels, stride and symmetric zero padding.
struct Conv2dConfig {
  std::size_t in_channels = 1;
  std::size_t out_channels = 1;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t padding = 0;
};

/// Shape accounting for an im2col lowering.
struct Im2colShape {
  std::size_t batch = 0;
  std::size_t h_out = 0;
  std::size_t w_out = 0;
  std::size_t rows = 0;  ///< batch * h_out * w_out.
  std::size_t cols = 0;  ///< in_channels * kernel * kernel.
};

/// Shape of the patch matrix for `input_shape` under `cfg`.
/// Throws std::invalid_argument on rank/channel mismatch or an input
/// smaller than the kernel.
[[nodiscard]] Im2colShape im2col_shape(const Shape& input_shape,
                                       const Conv2dConfig& cfg);

/// Precomputed gather map for im2col over a single sample (batch = 1 basis).
///
/// `src[i]` holds the flat (C, H, W) sample index feeding patch element `i`,
/// or -1 for a zero-padding tap. Because the row order is (n, oy, ox) with n
/// outermost and every sample is laid out identically, the one-sample map
/// covers any batch: sample n's patch block is the same gather applied to
/// `input + n * sample_numel`. Compiled once per (shape, config) by
/// core::ExecutionPlan and by Conv2d, so no forward re-derives tap indices.
struct Im2colPlan {
  Im2colShape shape;         ///< Basis shape with batch == 1.
  std::size_t sample_numel = 0;  ///< C * H * W of one input sample.
  std::vector<std::int32_t> src;  ///< rows * cols entries; -1 = padding tap.
};

/// Build the gather map for one sample of `sample_shape` (rank-4, batch dim
/// ignored / treated as 1) under `cfg`. Throws like im2col_shape, plus
/// std::invalid_argument when a sample exceeds int32 indexing.
[[nodiscard]] Im2colPlan plan_im2col(const Shape& sample_shape,
                                     const Conv2dConfig& cfg);

/// Apply the gather for ONE sample: fills `out` (rows * cols floats for the
/// batch-1 basis) from `sample` (sample_numel floats). Never allocates.
/// Padding taps write an exact 0.0f; real taps copy the input float.
void im2col_gather(const Im2colPlan& plan, const float* sample,
                   float* out) noexcept;

}  // namespace xl::dnn
