// Sequential network container with QAT hooks and LayerSpec export.
#pragma once

#include <memory>
#include <vector>

#include "dnn/layer.hpp"
#include "dnn/layer_spec.hpp"
#include "dnn/optimizer.hpp"

namespace xl::dnn {

class Network {
 public:
  Network() = default;
  /// Layers point at their network's quantization spec, so a move re-points
  /// every layer at the destination's (a defaulted move would leave them
  /// aimed at the moved-from network).
  Network(Network&& other) noexcept;
  Network& operator=(Network&& other) noexcept;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;
  ~Network() = default;

  /// Append a layer; returns a reference to *this for chaining.
  Network& add(LayerPtr layer);

  template <typename L, typename... Args>
  Network& emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  /// Forward through all layers. During QAT, activation-layer outputs are
  /// fake-quantized with per-layer tracked ranges.
  [[nodiscard]] Tensor forward(const Tensor& input, bool training = false);

  /// Backward through all layers; `grad` is dL/d(final output).
  Tensor backward(const Tensor& grad);

  /// All learnable parameters.
  [[nodiscard]] std::vector<ParamRef> parameters();

  [[nodiscard]] std::size_t parameter_count();
  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Enable / change quantization-aware execution. Pass {} to disable.
  void set_quantization(const QuantizationSpec& spec);
  [[nodiscard]] const QuantizationSpec& quantization() const noexcept { return quant_; }
  /// Reset tracked activation ranges (e.g. when changing bit width).
  void reset_activation_ranges();

  /// Shape inference through the whole stack.
  [[nodiscard]] Shape output_shape(const Shape& input_shape) const;

  /// Export hardware-facing layer specs for an input of the given shape
  /// (batch dimension ignored).
  [[nodiscard]] std::vector<LayerSpec> export_specs(const Shape& input_shape) const;

  /// Multi-line architecture summary.
  [[nodiscard]] std::string summary(const Shape& input_shape) const;

 private:
  std::vector<LayerPtr> layers_;
  std::vector<ActivationRange> ranges_;
  QuantizationSpec quant_;
};

}  // namespace xl::dnn
