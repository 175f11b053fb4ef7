#include "dnn/reshape.hpp"

#include <algorithm>
#include <stdexcept>

namespace xl::dnn {

Shape Flatten::output_shape(const Shape& input_shape) const {
  if (input_shape.size() < 2) {
    throw std::invalid_argument("Flatten: input must have a batch dimension");
  }
  std::size_t features = 1;
  for (std::size_t i = 1; i < input_shape.size(); ++i) features *= input_shape[i];
  return {input_shape[0], features};
}

Tensor Flatten::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return eval(input);
}

void Flatten::eval_into(const Shape& /*input_shape*/, std::span<const float> input,
                        std::span<float> output) {
  std::copy(input.begin(), input.end(), output.begin());
}

Tensor Flatten::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty()) throw std::logic_error("Flatten::backward before forward");
  Tensor grad = grad_output;
  grad.reshape(cached_input_shape_);
  return grad;
}

}  // namespace xl::dnn
