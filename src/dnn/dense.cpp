#include "dnn/dense.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace xl::dnn {

Dense::Dense(std::size_t in_features, std::size_t out_features, xl::numerics::Rng& rng)
    : in_(in_features),
      out_(out_features),
      w_({out_features, in_features}),
      b_({out_features}),
      dw_({out_features, in_features}),
      db_({out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
  const double bound = std::sqrt(6.0 / static_cast<double>(in_features));
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
}

Tensor Dense::forward(const Tensor& input, bool training) {
  Tensor out = eval(input);
  // The input copy exists only for backward(); inference skips it (and
  // clears any stale cache so a later backward() fails loudly).
  cached_input_ = training ? input : Tensor();
  return out;
}

void Dense::eval_into(const Shape& input_shape, std::span<const float> input,
                      std::span<float> output) {
  const bool qat = quant_ != nullptr && quant_->weights_enabled();
  const Tensor* w = &w_;
  if (qat) {
    effective_w_ = w_;
    fake_quant_symmetric(w_.span(), effective_w_.span(), quant_->weight_bits);
    w = &effective_w_;
  }

  const std::size_t batch = input_shape[0];
  for (std::size_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * in_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float* wr = w->data() + o * in_;
      float acc = b_[o];
      for (std::size_t i = 0; i < in_; ++i) acc += wr[i] * x[i];
      output[n * out_ + o] = acc;
    }
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("Dense::backward before forward");
  const std::size_t batch = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: gradient shape mismatch");
  }

  // Straight-through estimator: gradients flow as if the quantized weights
  // were the real ones, but are applied to the full-precision master w_.
  const bool qat = quant_ != nullptr && quant_->weights_enabled();
  const Tensor* w = qat ? &effective_w_ : &w_;

  Tensor grad_input({batch, in_});
  for (std::size_t n = 0; n < batch; ++n) {
    const float* x = cached_input_.data() + n * in_;
    const float* gy = grad_output.data() + n * out_;
    float* gx = grad_input.data() + n * in_;
    for (std::size_t o = 0; o < out_; ++o) {
      const float g = gy[o];
      if (g == 0.0F) continue;
      const float* wr = w->data() + o * in_;
      float* dwr = dw_.data() + o * in_;
      db_[o] += g;
      for (std::size_t i = 0; i < in_; ++i) {
        gx[i] += g * wr[i];
        dwr[i] += g * x[i];
      }
    }
  }
  return grad_input;
}

std::vector<ParamRef> Dense::parameters() {
  return {ParamRef{&w_, &dw_}, ParamRef{&b_, &db_}};
}

std::string Dense::describe() const {
  std::ostringstream os;
  os << "dense(" << in_ << " -> " << out_ << ")";
  return os.str();
}

Shape Dense::output_shape(const Shape& input_shape) const {
  if (input_shape.size() != 2 || input_shape[1] != in_) {
    throw std::invalid_argument("Dense: expected (N, " + std::to_string(in_) + "), got " +
                                shape_to_string(input_shape));
  }
  return {input_shape[0], out_};
}

}  // namespace xl::dnn
