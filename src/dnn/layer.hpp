// Abstract layer interface for the sequential DNN container.
//
// Each layer's inference arithmetic lives in one place, eval_into(), which
// writes into a caller-provided buffer. forward(x, false) reaches it through
// eval() (size the output Tensor, call eval_into); a training forward runs
// the same arithmetic and adds only what backward() needs (cached input,
// argmax map, dropout mask). backward() receives dL/d(output), returns
// dL/d(input), and accumulates parameter gradients into the grad tensors
// exposed via parameters().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dnn/layer_spec.hpp"
#include "dnn/quantize.hpp"
#include "dnn/tensor.hpp"

namespace xl::dnn {

/// A learnable parameter and its gradient accumulator.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Compute the layer output; `training` enables dropout masks and the
  /// caches backward() reads. The default suits layers with no training
  /// state: both modes are eval().
  virtual Tensor forward(const Tensor& input, bool training) {
    (void)training;
    return eval(input);
  }

  /// Backpropagate; must be called after forward() on the same input.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> parameters() { return {}; }

  /// Short kind tag, e.g. "conv2d", "dense", "relu".
  [[nodiscard]] virtual std::string kind() const = 0;

  /// Structural kind for switch-based dispatch, reusing the hardware-facing
  /// LayerSpec taxonomy: kConv/kDense layers are the ones the photonic
  /// engine accelerates (a kConv layer IS-A Conv2d, kDense IS-A Dense);
  /// everything else runs in the electronic domain. This replaces the
  /// dynamic_cast chains previously scattered across consumers.
  [[nodiscard]] virtual LayerKind kind_id() const noexcept { return LayerKind::kOther; }

  /// Human-readable one-line description.
  [[nodiscard]] virtual std::string describe() const { return kind(); }

  /// Output shape for a given input shape (shape inference, no compute).
  [[nodiscard]] virtual Shape output_shape(const Shape& input_shape) const = 0;

  /// Total learnable parameter element count.
  [[nodiscard]] std::size_t parameter_count() {
    std::size_t acc = 0;
    for (const ParamRef& p : parameters()) acc += p.value->numel();
    return acc;
  }

  /// Install the network-wide quantization spec (weight layers honour it).
  virtual void set_quantization(const QuantizationSpec* spec) { quant_ = spec; }

  /// True when the layer output is an activation the network should fake-
  /// quantize during QAT (nonlinearities and pooling outputs).
  [[nodiscard]] virtual bool is_activation() const { return false; }

  // --- zero-allocation inference protocol (core::ExecutionPlan) -------------
  //
  // A compiled execution plan classifies each layer once and then runs the
  // steady state without Tensor construction: identity layers become shape-
  // only views and every other electronic layer computes through eval_into()
  // straight into plan-owned arena buffers.

  /// True when forward(input, false) returns the input data unchanged (only
  /// the shape may differ, e.g. Flatten, inference-mode Dropout). A plan
  /// turns such layers into zero-copy views.
  [[nodiscard]] virtual bool inference_identity() const noexcept { return false; }

  /// The layer's inference arithmetic, into a caller-provided buffer.
  /// Contract:
  ///   * `output` receives the whole result (size = numel of
  ///     output_shape(input_shape)); forward(input, false) returns exactly
  ///     this data because it is computed here;
  ///   * no heap allocation once warm (a layer may size a scratch buffer on
  ///     the first call for a new input shape) and no backward-facing state
  ///     (backward() after eval_into() is invalid);
  ///   * `input`/`output` must not alias.
  virtual void eval_into(const Shape& input_shape, std::span<const float> input,
                         std::span<float> output) = 0;

 protected:
  /// Inference forward: a fresh output Tensor filled by eval_into().
  [[nodiscard]] Tensor eval(const Tensor& input) {
    Tensor out(output_shape(input.shape()));
    eval_into(input.shape(), input.span(), out.span());
    return out;
  }

  const QuantizationSpec* quant_ = nullptr;  ///< Owned by the Network.
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace xl::dnn
