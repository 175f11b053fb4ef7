#include "dnn/activations.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace xl::dnn {

Tensor ReLU::forward(const Tensor& input, bool training) {
  // The input copy exists only for backward(); inference skips it (and
  // clears any stale cache so a later backward() fails loudly).
  cached_input_ = training ? input : Tensor();
  return eval(input);
}

void ReLU::eval_into(const Shape& /*input_shape*/, std::span<const float> input,
                     std::span<float> output) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    const float v = input[i];
    output[i] = v < 0.0F ? 0.0F : v;
  }
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("ReLU::backward before forward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (cached_input_[i] <= 0.0F) grad[i] = 0.0F;
  }
  return grad;
}

Tensor Sigmoid::forward(const Tensor& input, bool training) {
  Tensor out = eval(input);
  cached_output_ = training ? out : Tensor();
  return out;
}

void Sigmoid::eval_into(const Shape& /*input_shape*/,
                        std::span<const float> input, std::span<float> output) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    output[i] = 1.0F / (1.0F + std::exp(-input[i]));
  }
}

Tensor Sigmoid::backward(const Tensor& grad_output) {
  if (cached_output_.empty()) throw std::logic_error("Sigmoid::backward before forward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= y * (1.0F - y);
  }
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor out = eval(input);
  cached_output_ = training ? out : Tensor();
  return out;
}

void Tanh::eval_into(const Shape& /*input_shape*/, std::span<const float> input,
                     std::span<float> output) {
  for (std::size_t i = 0; i < input.size(); ++i) output[i] = std::tanh(input[i]);
}

Tensor Tanh::backward(const Tensor& grad_output) {
  if (cached_output_.empty()) throw std::logic_error("Tanh::backward before forward");
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    const float y = cached_output_[i];
    grad[i] *= 1.0F - y * y;
  }
  return grad;
}

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0 || rate >= 1.0) {
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
  }
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training) {
    // Pure identity at inference: no mask allocation, no scaling. A stale
    // training mask is dropped so backward() after an inference pass throws.
    mask_.clear();
    return eval(input);
  }
  if (rate_ == 0.0) {
    mask_.assign(input.numel(), 1.0F);
    return input;
  }
  const float keep = static_cast<float>(1.0 - rate_);
  mask_.resize(input.numel());
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    const bool kept = rng_.bernoulli(keep);
    mask_[i] = kept ? 1.0F / keep : 0.0F;
    out[i] *= mask_[i];
  }
  return out;
}

void Dropout::eval_into(const Shape& /*input_shape*/, std::span<const float> input,
                        std::span<float> output) {
  std::copy(input.begin(), input.end(), output.begin());
}

Tensor Dropout::backward(const Tensor& grad_output) {
  if (mask_.size() != grad_output.numel()) {
    throw std::logic_error("Dropout::backward before forward");
  }
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) grad[i] *= mask_[i];
  return grad;
}

std::string Dropout::describe() const {
  std::ostringstream os;
  os << "dropout(" << rate_ << ")";
  return os.str();
}

}  // namespace xl::dnn
