// im2col lowering tests: shape accounting, padding zeros, and round-trip
// equivalence with Conv2d::forward (patches * W^T + bias == direct conv).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dnn/conv2d.hpp"
#include "dnn/im2col.hpp"
#include "numerics/rng.hpp"

namespace {

using namespace xl;

dnn::Tensor random_input(const dnn::Shape& shape, numerics::Rng& rng) {
  dnn::Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(Im2col, ShapeAccounting) {
  dnn::Conv2dConfig cfg{3, 8, 3, 1, 1};
  const auto s = dnn::im2col_shape({2, 3, 10, 10}, cfg);
  EXPECT_EQ(s.batch, 2u);
  EXPECT_EQ(s.h_out, 10u);
  EXPECT_EQ(s.w_out, 10u);
  EXPECT_EQ(s.rows, 200u);
  EXPECT_EQ(s.cols, 27u);

  dnn::Conv2dConfig strided{1, 1, 2, 2, 0};
  const auto t = dnn::im2col_shape({1, 1, 6, 6}, strided);
  EXPECT_EQ(t.h_out, 3u);
  EXPECT_EQ(t.rows, 9u);

  EXPECT_THROW((void)dnn::im2col_shape({1, 2, 6, 6}, cfg), std::invalid_argument);
  EXPECT_THROW((void)dnn::im2col_shape({1, 1, 1, 1}, strided), std::invalid_argument);
}

/// Patch matrix of a whole batch: the one-sample gather map applied to every
/// sample, blocks stacked in (n, oy, ox) row order.
std::vector<float> gather_batch(const dnn::Tensor& input, const dnn::Conv2dConfig& cfg) {
  const dnn::Im2colPlan plan = dnn::plan_im2col(input.shape(), cfg);
  std::vector<float> patches(input.dim(0) * plan.src.size());
  for (std::size_t n = 0; n < input.dim(0); ++n) {
    dnn::im2col_gather(plan, input.data() + n * plan.sample_numel,
                       patches.data() + n * plan.src.size());
  }
  return patches;
}

TEST(Im2col, PaddingTapsAreZero) {
  dnn::Conv2dConfig cfg{1, 1, 3, 1, 1};
  dnn::Tensor input({1, 1, 2, 2}, 1.0F);
  const dnn::Im2colPlan plan = dnn::plan_im2col(input.shape(), cfg);
  ASSERT_EQ(plan.shape.rows, 4u);
  ASSERT_EQ(plan.shape.cols, 9u);
  const std::vector<float> patches = gather_batch(input, cfg);
  ASSERT_EQ(patches.size(), 36u);
  // Top-left output pixel: only the bottom-right 2x2 of the kernel overlaps.
  EXPECT_EQ(plan.src[0], -1);        // (ky=0, kx=0) off-image: a padding tap...
  EXPECT_EQ(patches[0], 0.0F);       // ...gathers an exact zero.
  EXPECT_FALSE(std::signbit(patches[0]));
  EXPECT_EQ(patches[4], 1.0F);       // Center tap on (0, 0).
  EXPECT_EQ(patches[8], 1.0F);       // (ky=2, kx=2) on (1, 1).
}

TEST(Im2col, RoundTripMatchesConvForward) {
  numerics::Rng rng(31);
  for (const auto& cfg : {dnn::Conv2dConfig{2, 5, 3, 1, 1}, dnn::Conv2dConfig{3, 4, 3, 2, 0},
                          dnn::Conv2dConfig{1, 2, 5, 1, 2}}) {
    dnn::Conv2d conv(cfg, rng);
    const dnn::Tensor input = random_input({3, cfg.in_channels, 9, 9}, rng);
    const dnn::Tensor direct = conv.forward(input, false);

    const std::vector<float> patches = gather_batch(input, cfg);
    const auto s = dnn::im2col_shape(input.shape(), cfg);
    const std::size_t patch_len = s.cols;
    ASSERT_EQ(patches.size(), s.rows * patch_len);
    const auto pad = static_cast<std::ptrdiff_t>(cfg.padding);

    for (std::size_t r = 0; r < s.rows; ++r) {
      const std::size_t n = r / (s.h_out * s.w_out);
      const std::size_t oy = (r / s.w_out) % s.h_out;
      const std::size_t ox = r % s.w_out;
      for (std::size_t co = 0; co < cfg.out_channels; ++co) {
        const float* filter = conv.weights().data() + co * patch_len;
        // Patch row x filter row...
        float acc = conv.bias()[co];
        for (std::size_t i = 0; i < patch_len; ++i) {
          acc += filter[i] * patches[r * patch_len + i];
        }
        // ...equals a direct convolution from tap indices, summed in the same
        // (ci, ky, kx) order with off-image taps reading zero.
        float ref = conv.bias()[co];
        std::size_t i = 0;
        for (std::size_t ci = 0; ci < cfg.in_channels; ++ci) {
          for (std::size_t ky = 0; ky < cfg.kernel; ++ky) {
            for (std::size_t kx = 0; kx < cfg.kernel; ++kx, ++i) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy * cfg.stride + ky) - pad;
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox * cfg.stride + kx) - pad;
              const bool on = iy >= 0 && iy < 9 && ix >= 0 && ix < 9;
              ref += filter[i] * (on ? input.at4(n, ci, static_cast<std::size_t>(iy),
                                                 static_cast<std::size_t>(ix))
                                     : 0.0F);
            }
          }
        }
        EXPECT_EQ(acc, ref) << "cfg k=" << cfg.kernel << " r=" << r << " co=" << co;
        EXPECT_EQ(acc, direct.at4(n, co, oy, ox))
            << "cfg k=" << cfg.kernel << " r=" << r << " co=" << co;
      }
    }
  }
}

}  // namespace
