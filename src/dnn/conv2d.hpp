// 2-D convolution layer, NCHW layout, square kernels, configurable stride
// and symmetric zero padding. This is the layer the CrossLight CONV VDP
// units accelerate: each output pixel is a dot product of length k*k*C_in
// (Section IV-C.1, Eqs. 1-4).
#pragma once

#include <array>
#include <vector>

#include "dnn/im2col.hpp"
#include "dnn/layer.hpp"
#include "numerics/rng.hpp"

namespace xl::dnn {

class Conv2d : public Layer {
 public:
  Conv2d(const Conv2dConfig& config, xl::numerics::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string kind() const override { return "conv2d"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kConv; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  /// Lowers through plan_im2col + im2col_gather, the plan's own lowering:
  /// output (n, co, oy, ox) = bias[co] + sum_i filter(co)[i] * patch[i],
  /// summed in patch order (padding taps add filter * 0.0f).
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

  [[nodiscard]] const Conv2dConfig& config() const noexcept { return config_; }
  Tensor& weights() noexcept { return w_; }
  Tensor& bias() noexcept { return b_; }

 private:
  Conv2dConfig config_;
  Tensor w_;   ///< (C_out, C_in, k, k)
  Tensor b_;   ///< (C_out)
  Tensor dw_, db_;
  Tensor cached_input_;
  Tensor effective_w_;
  // eval_into's lowering, cached for the last sample shape so a warm call
  // does not allocate.
  std::array<std::size_t, 3> gather_dims_{};  ///< (C, H, W) gather_ was built for.
  Im2colPlan gather_;
  std::vector<float> patches_;  ///< One sample's patch matrix.
};

}  // namespace xl::dnn
