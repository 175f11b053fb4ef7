// Max and average 2-D pooling (NCHW). Pooling executes in the electronic
// domain on CrossLight (Section IV-C intro), so these layers carry no
// photonic mapping, but the DNN substrate still needs them for training.
#pragma once

#include <vector>

#include "dnn/layer.hpp"

namespace xl::dnn {

class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window = 2, std::size_t stride = 0 /* = window */);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "maxpool2d"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kPool; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  [[nodiscard]] bool is_activation() const override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

  [[nodiscard]] std::size_t window() const noexcept { return window_; }
  [[nodiscard]] std::size_t stride() const noexcept { return stride_; }

 private:
  /// The pooling loop of eval_into(); a training forward also records each
  /// output's winning input index into `argmax` (nullptr at inference).
  void pool(const Shape& input_shape, std::span<const float> input,
            std::span<float> output, std::size_t* argmax) const;

  std::size_t window_;
  std::size_t stride_;
  Shape cached_input_shape_;
  std::vector<std::size_t> argmax_;  ///< Flat input index per output element.
};

class AvgPool2d : public Layer {
 public:
  explicit AvgPool2d(std::size_t window = 2, std::size_t stride = 0 /* = window */);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "avgpool2d"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kPool; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override;
  [[nodiscard]] bool is_activation() const override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

 private:
  std::size_t window_;
  std::size_t stride_;
  Shape cached_input_shape_;
};

}  // namespace xl::dnn
