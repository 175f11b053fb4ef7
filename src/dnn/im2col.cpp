#include "dnn/im2col.hpp"

#include <limits>
#include <stdexcept>

namespace xl::dnn {

Im2colShape im2col_shape(const Shape& input_shape, const Conv2dConfig& cfg) {
  if (input_shape.size() != 4 || input_shape[1] != cfg.in_channels) {
    throw std::invalid_argument("im2col: incompatible input shape");
  }
  const auto out_extent = [&](std::size_t in_extent) {
    const std::size_t padded = in_extent + 2 * cfg.padding;
    if (padded < cfg.kernel) {
      throw std::invalid_argument("im2col: input smaller than kernel");
    }
    return (padded - cfg.kernel) / cfg.stride + 1;
  };
  Im2colShape s;
  s.batch = input_shape[0];
  s.h_out = out_extent(input_shape[2]);
  s.w_out = out_extent(input_shape[3]);
  s.rows = s.batch * s.h_out * s.w_out;
  s.cols = cfg.in_channels * cfg.kernel * cfg.kernel;
  return s;
}

Im2colPlan plan_im2col(const Shape& sample_shape, const Conv2dConfig& cfg) {
  if (sample_shape.size() != 4) {
    throw std::invalid_argument("plan_im2col: rank-4 sample shape required");
  }
  const Shape basis = {1, sample_shape[1], sample_shape[2], sample_shape[3]};
  Im2colPlan plan;
  plan.shape = im2col_shape(basis, cfg);
  plan.sample_numel = sample_shape[1] * sample_shape[2] * sample_shape[3];
  if (plan.sample_numel >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument("plan_im2col: sample exceeds int32 indexing");
  }
  const std::size_t h_in = sample_shape[2];
  const std::size_t w_in = sample_shape[3];
  const auto pad = static_cast<std::ptrdiff_t>(cfg.padding);

  // Rows (oy, ox), columns (ci, ky, kx).
  plan.src.resize(plan.shape.rows * plan.shape.cols);
  std::int32_t* out = plan.src.data();
  for (std::size_t oy = 0; oy < plan.shape.h_out; ++oy) {
    const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * cfg.stride) - pad;
    for (std::size_t ox = 0; ox < plan.shape.w_out; ++ox) {
      const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * cfg.stride) - pad;
      for (std::size_t ci = 0; ci < cfg.in_channels; ++ci) {
        for (std::size_t ky = 0; ky < cfg.kernel; ++ky) {
          const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
          const bool row_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(h_in);
          for (std::size_t kx = 0; kx < cfg.kernel; ++kx, ++out) {
            const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
            const bool ok = row_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(w_in);
            *out = ok ? static_cast<std::int32_t>(
                            (ci * h_in + static_cast<std::size_t>(iy)) * w_in +
                            static_cast<std::size_t>(ix))
                      : std::int32_t{-1};
          }
        }
      }
    }
  }
  return plan;
}

void im2col_gather(const Im2colPlan& plan, const float* sample,
                   float* out) noexcept {
  const std::size_t count = plan.src.size();
  const std::int32_t* src = plan.src.data();
  for (std::size_t i = 0; i < count; ++i) {
    const std::int32_t idx = src[i];
    out[i] = idx >= 0 ? sample[idx] : 0.0F;
  }
}

}  // namespace xl::dnn
