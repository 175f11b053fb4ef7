// Shape adapters: Flatten (NCHW -> (N, C*H*W)).
#pragma once

#include "dnn/layer.hpp"

namespace xl::dnn {

class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "flatten"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kOther; }
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  /// Row-major flatten does not move bytes: a plan treats it as a pure
  /// shape change (the cached shape stays backward-compatible because
  /// planned execution never calls forward()).
  [[nodiscard]] bool inference_identity() const noexcept override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

 private:
  Shape cached_input_shape_;
};

}  // namespace xl::dnn
