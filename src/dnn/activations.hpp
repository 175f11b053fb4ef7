// Elementwise nonlinearities. On the accelerator these correspond to the
// electro-absorption-modulator nonlinear unit of the photonic neuron
// (Section III); in the DNN substrate they are ordinary layers.
#pragma once

#include "dnn/layer.hpp"
#include "numerics/rng.hpp"

namespace xl::dnn {

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "relu"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kActivation; }
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
    return input_shape;
  }
  [[nodiscard]] bool is_activation() const override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

 private:
  Tensor cached_input_;
};

class Sigmoid : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "sigmoid"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kActivation; }
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
    return input_shape;
  }
  [[nodiscard]] bool is_activation() const override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

 private:
  Tensor cached_output_;
};

class Tanh : public Layer {
 public:
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "tanh"; }
  [[nodiscard]] LayerKind kind_id() const noexcept override { return LayerKind::kActivation; }
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
    return input_shape;
  }
  [[nodiscard]] bool is_activation() const override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

 private:
  Tensor cached_output_;
};

/// Inverted dropout; identity during inference.
class Dropout : public Layer {
 public:
  /// `rate` in [0, 1): fraction of units dropped during training.
  Dropout(double rate, std::uint64_t seed);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::string kind() const override { return "dropout"; }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const override {
    return input_shape;
  }
  /// Identity at inference (inverted dropout scales at train time only).
  [[nodiscard]] bool inference_identity() const noexcept override { return true; }
  void eval_into(const Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override;

 private:
  double rate_;
  xl::numerics::Rng rng_;
  std::vector<float> mask_;
};

}  // namespace xl::dnn
