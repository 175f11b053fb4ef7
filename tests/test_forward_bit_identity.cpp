// Layer forward bit identity: Conv2d, Dense and MaxPool2d compute through
// eval_into() (Conv2d over the plan's own im2col gather). These tests hold
// forward(x, false) and forward(x, true) to the bytes of the direct loops the
// layers ran before that lowering, kept here as the reference: one scalar
// accumulator per output, `acc = bias; acc += w[i] * patch[i]` in patch order,
// zero-padding taps adding w * 0.0f. Cases cover stride 2, padding, batch 1,
// odd channel counts, QAT weights, a signed-zero bias, and MaxPool ties
// (first maximum wins, so the training argmax and the gradients match too).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "dnn/conv2d.hpp"
#include "dnn/dense.hpp"
#include "dnn/pooling.hpp"
#include "dnn/quantize.hpp"
#include "numerics/rng.hpp"

namespace xl::dnn {
namespace {

Tensor random_tensor(const Shape& shape, numerics::Rng& rng) {
  Tensor t(shape);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

void expect_same_bytes(const Tensor& want, const Tensor& got) {
  ASSERT_EQ(want.shape(), got.shape());
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.numel() * sizeof(float)));
}

/// Weights as the layer applies them: fake-quantized when QAT is on.
Tensor applied_weights(Tensor& w, const QuantizationSpec& quant) {
  Tensor out = w;
  if (quant.weights_enabled()) fake_quant_symmetric(w.span(), out.span(), quant.weight_bits);
  return out;
}

// --- reference loops ---------------------------------------------------------

/// Patch matrix from per-element NCHW reads (rows (n, oy, ox), columns
/// (ci, ky, kx)); off-image taps are exact zeros.
Tensor reference_im2col(const Tensor& input, const Conv2dConfig& cfg) {
  const Im2colShape s = im2col_shape(input.shape(), cfg);
  const std::size_t h_in = input.dim(2);
  const std::size_t w_in = input.dim(3);
  const auto pad = static_cast<std::ptrdiff_t>(cfg.padding);
  Tensor patches({s.rows, s.cols});
  float* out = patches.data();
  for (std::size_t n = 0; n < s.batch; ++n) {
    for (std::size_t oy = 0; oy < s.h_out; ++oy) {
      const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy * cfg.stride) - pad;
      for (std::size_t ox = 0; ox < s.w_out; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * cfg.stride) - pad;
        for (std::size_t ci = 0; ci < cfg.in_channels; ++ci) {
          for (std::size_t ky = 0; ky < cfg.kernel; ++ky) {
            const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
            const bool row_ok = iy >= 0 && iy < static_cast<std::ptrdiff_t>(h_in);
            for (std::size_t kx = 0; kx < cfg.kernel; ++kx, ++out) {
              const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
              const bool ok = row_ok && ix >= 0 && ix < static_cast<std::ptrdiff_t>(w_in);
              *out = ok ? input.at4(n, ci, static_cast<std::size_t>(iy),
                                    static_cast<std::size_t>(ix))
                        : 0.0F;
            }
          }
        }
      }
    }
  }
  return patches;
}

Tensor reference_conv(Conv2d& conv, const Tensor& input, const QuantizationSpec& quant) {
  const Tensor w = applied_weights(conv.weights(), quant);
  const Conv2dConfig& cfg = conv.config();
  const Shape out_shape = conv.output_shape(input.shape());
  const Tensor patches = reference_im2col(input, cfg);
  const std::size_t rows = patches.dim(0);
  const std::size_t patch_len = patches.dim(1);
  const std::size_t c_out = cfg.out_channels;
  const std::size_t pixels_per_sample = out_shape[2] * out_shape[3];
  Tensor out(out_shape);
  for (std::size_t r = 0; r < rows; ++r) {
    const float* patch = patches.data() + r * patch_len;
    const std::size_t n = r / pixels_per_sample;
    const std::size_t pixel = r % pixels_per_sample;
    for (std::size_t co = 0; co < c_out; ++co) {
      const float* filter = w.data() + co * patch_len;
      float acc = conv.bias()[co];
      for (std::size_t i = 0; i < patch_len; ++i) acc += filter[i] * patch[i];
      out.data()[(n * c_out + co) * pixels_per_sample + pixel] = acc;
    }
  }
  return out;
}

Tensor reference_dense(Dense& dense, const Tensor& input, const QuantizationSpec& quant) {
  const Tensor w = applied_weights(dense.weights(), quant);
  const std::size_t in = dense.in_features();
  const std::size_t outputs = dense.out_features();
  const std::size_t batch = input.dim(0);
  Tensor out({batch, outputs});
  for (std::size_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * in;
    for (std::size_t o = 0; o < outputs; ++o) {
      const float* wr = w.data() + o * in;
      float acc = dense.bias()[o];
      for (std::size_t i = 0; i < in; ++i) acc += wr[i] * x[i];
      out.at2(n, o) = acc;
    }
  }
  return out;
}

/// Max pooling with its training argmax: strict '>' keeps the first of tied
/// maxima in row-major window order.
Tensor reference_maxpool(const Tensor& input, std::size_t window, std::size_t stride,
                         std::vector<std::size_t>& argmax) {
  const std::size_t batch = input.dim(0);
  const std::size_t channels = input.dim(1);
  const std::size_t h_in = input.dim(2);
  const std::size_t w_in = input.dim(3);
  const std::size_t h_out = (h_in - window) / stride + 1;
  const std::size_t w_out = (w_in - window) / stride + 1;
  Tensor out({batch, channels, h_out, w_out});
  argmax.assign(out.numel(), 0);
  std::size_t flat_out = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t oy = 0; oy < h_out; ++oy) {
        for (std::size_t ox = 0; ox < w_out; ++ox, ++flat_out) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window; ++ky) {
            for (std::size_t kx = 0; kx < window; ++kx) {
              const std::size_t idx =
                  ((n * channels + c) * h_in + oy * stride + ky) * w_in + ox * stride + kx;
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          out[flat_out] = best;
          argmax[flat_out] = best_idx;
        }
      }
    }
  }
  return out;
}

// --- cases -------------------------------------------------------------------

struct ConvCase {
  Conv2dConfig cfg;
  Shape input;
};

const ConvCase kConvCases[] = {
    {{3, 5, 3, 2, 1}, {1, 3, 9, 9}},   // Stride 2 + padding, batch 1, odd channels.
    {{1, 3, 5, 1, 2}, {2, 1, 7, 7}},   // Padding wider than one tap.
    {{5, 7, 3, 1, 0}, {3, 5, 6, 6}},   // No padding, odd channels, batch 3.
    {{2, 4, 2, 2, 0}, {1, 2, 8, 8}},   // Even kernel, stride 2, batch 1.
    {{3, 3, 3, 2, 1}, {2, 3, 10, 7}},  // Non-square input.
};

const int kWeightBits[] = {0, 4};  // Float weights, then QAT at 4 bits.

TEST(ForwardBitIdentity, Conv2dMatchesDirectLoopsInBothModes) {
  numerics::Rng rng(41);
  for (const int bits : kWeightBits) {
    QuantizationSpec quant;
    quant.weight_bits = bits;
    for (const ConvCase& c : kConvCases) {
      SCOPED_TRACE(testing::Message() << "bits=" << bits << " k=" << c.cfg.kernel
                                      << " s=" << c.cfg.stride << " p=" << c.cfg.padding);
      Conv2d conv(c.cfg, rng);
      conv.set_quantization(&quant);
      for (std::size_t co = 0; co < c.cfg.out_channels; ++co) {
        conv.bias()[co] = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      const Tensor x = random_tensor(c.input, rng);
      const Tensor want = reference_conv(conv, x, quant);
      expect_same_bytes(want, conv.forward(x, false));
      expect_same_bytes(want, conv.forward(x, true));
      (void)conv.backward(want);  // The training forward armed backward().
    }
  }
}

TEST(ForwardBitIdentity, Conv2dGatherCacheFollowsTheInputShape) {
  // The cached gather map is rebuilt when the sample shape changes and
  // reused across batch sizes of one shape.
  numerics::Rng rng(43);
  Conv2d conv({3, 5, 3, 1, 1}, rng);
  const QuantizationSpec none;
  for (const Shape& shape : {Shape{2, 3, 9, 9}, Shape{1, 3, 9, 9}, Shape{2, 3, 5, 7},
                             Shape{3, 3, 9, 9}}) {
    const Tensor x = random_tensor(shape, rng);
    expect_same_bytes(reference_conv(conv, x, none), conv.forward(x, false));
  }
}

TEST(ForwardBitIdentity, Conv2dPaddingTapsKeepTheSignOfZero) {
  // bias = -0 on an all-zero input, weights -1 except +1 on each channel's
  // (ky, kx) = (0, 0) tap, which is a padding tap for the top-left output.
  // Negative taps add -0 and keep the sum at -0; only the +1 tap's w * 0.0f
  // = +0 turns it to +0, so every output reads +0 only when padding taps are
  // added too.
  numerics::Rng rng(47);
  Conv2d conv({3, 5, 3, 2, 1}, rng);
  for (std::size_t i = 0; i < conv.weights().numel(); ++i) {
    conv.weights()[i] = i % 9 == 0 ? 1.0F : -1.0F;
  }
  for (std::size_t co = 0; co < 5; ++co) conv.bias()[co] = -0.0F;
  const Tensor x({1, 3, 5, 5}, 0.0F);
  const QuantizationSpec none;
  const Tensor got = conv.forward(x, false);
  expect_same_bytes(reference_conv(conv, x, none), got);
  for (std::size_t i = 0; i < got.numel(); ++i) EXPECT_FALSE(std::signbit(got[i])) << i;
}

TEST(ForwardBitIdentity, DenseMatchesDirectLoopsInBothModes) {
  numerics::Rng rng(53);
  for (const int bits : kWeightBits) {
    QuantizationSpec quant;
    quant.weight_bits = bits;
    for (const std::size_t batch : {1U, 4U}) {
      SCOPED_TRACE(testing::Message() << "bits=" << bits << " batch=" << batch);
      Dense dense(7, 5, rng);
      dense.set_quantization(&quant);
      for (std::size_t o = 0; o < 5; ++o) {
        dense.bias()[o] = static_cast<float>(rng.uniform(-0.5, 0.5));
      }
      const Tensor x = random_tensor({batch, 7}, rng);
      const Tensor want = reference_dense(dense, x, quant);
      expect_same_bytes(want, dense.forward(x, false));
      expect_same_bytes(want, dense.forward(x, true));
      (void)dense.backward(want);
    }
  }
}

TEST(ForwardBitIdentity, MaxPoolTiedMaximaKeepTheFirstArgmax) {
  // Ties inside windows: a constant window, two equal maxima, and -0 vs +0
  // (equal under '>'). Overlapping windows (stride 1) route several outputs
  // to one input, so the gradient checks the argmax map element by element.
  const std::vector<float> values = {
      1.0F,  1.0F,  0.5F,   //
      1.0F,  1.0F,  2.0F,   //
      2.0F,  0.5F,  2.0F,   //
      -0.0F, 0.0F,  -1.0F,  //
      0.0F,  -0.0F, -1.0F,  //
      -1.0F, -1.0F, -1.0F};
  Tensor x({2, 1, 3, 3});
  std::memcpy(x.data(), values.data(), values.size() * sizeof(float));
  for (const std::size_t stride : {1U, 2U}) {
    SCOPED_TRACE(testing::Message() << "stride=" << stride);
    MaxPool2d pool(2, stride);
    std::vector<std::size_t> argmax;
    const Tensor want = reference_maxpool(x, 2, stride, argmax);
    expect_same_bytes(want, pool.forward(x, false));
    expect_same_bytes(want, pool.forward(x, true));

    Tensor grad_out(want.shape());
    for (std::size_t i = 0; i < grad_out.numel(); ++i) {
      grad_out[i] = static_cast<float>(i + 1);
    }
    Tensor want_grad(x.shape());
    for (std::size_t i = 0; i < argmax.size(); ++i) want_grad[argmax[i]] += grad_out[i];
    expect_same_bytes(want_grad, pool.backward(grad_out));
  }
}

}  // namespace
}  // namespace xl::dnn
