// Fully connected (dense) layer: y = x W^T + b, x is (N, in), W is (out, in).
#pragma once

#include "dnn/layer.hpp"
#include "numerics/rng.hpp"

namespace xl::dnn {

class Dense : public Layer {
 public:
  /// He-uniform initialization using `rng`.
  Dense(std::size_t in_features, std::size_t out_features, xl::numerics::Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string kind() const override { return "dense"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kDense; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

  [[nodiscard]] std::size_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::size_t out_features() const noexcept { return out_; }

  Tensor& weights() noexcept { return w_; }
  Tensor& bias() noexcept { return b_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor w_, b_;
  Tensor dw_, db_;
  Tensor cached_input_;
  Tensor effective_w_;  ///< Fake-quantized view used when QAT is active.
};

}  // namespace xl::dnn
