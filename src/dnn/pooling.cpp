#include "dnn/pooling.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>

namespace xl::dnn {

namespace {

Shape pooled_shape(const Shape& in, std::size_t window, std::size_t stride,
                   const char* who) {
  if (in.size() != 4) throw std::invalid_argument(std::string(who) + ": rank-4 input required");
  if (in[2] < window || in[3] < window) {
    throw std::invalid_argument(std::string(who) + ": input smaller than window");
  }
  return {in[0], in[1], (in[2] - window) / stride + 1, (in[3] - window) / stride + 1};
}

}  // namespace

MaxPool2d::MaxPool2d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  if (window_ == 0) throw std::invalid_argument("MaxPool2d: zero window");
}

Shape MaxPool2d::output_shape(const Shape& input_shape) const {
  return pooled_shape(input_shape, window_, stride_, "MaxPool2d");
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  cached_input_shape_ = input.shape();
  // The argmax map exists only for backward(); at inference it is cleared so
  // a stale map from an earlier training pass can never be routed through.
  if (!training) {
    argmax_.clear();
    return eval(input);
  }
  Tensor out(output_shape(input.shape()));
  argmax_.assign(out.numel(), 0);
  pool(input.shape(), input.span(), out.span(), argmax_.data());
  return out;
}

void MaxPool2d::eval_into(const Shape& input_shape, std::span<const float> input,
                          std::span<float> output) {
  pool(input_shape, input, output, nullptr);
}

void MaxPool2d::pool(const Shape& input_shape, std::span<const float> input,
                     std::span<float> output, std::size_t* argmax) const {
  // Extents computed inline (no Shape construction): eval_into must not
  // allocate. Callers validated the shape through output_shape().
  const std::size_t batch = input_shape[0];
  const std::size_t channels = input_shape[1];
  const std::size_t h_in = input_shape[2];
  const std::size_t w_in = input_shape[3];
  const std::size_t h_out = (h_in - window_) / stride_ + 1;
  const std::size_t w_out = (w_in - window_) / stride_ + 1;
  std::size_t flat_out = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t oy = 0; oy < h_out; ++oy) {
        for (std::size_t ox = 0; ox < w_out; ++ox, ++flat_out) {
          // Strict '>' keeps the first of tied maxima (row-major window order).
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              const std::size_t idx = ((n * channels + c) * h_in + iy) * w_in + ix;
              const float v = input[idx];
              if (v > best) {
                best = v;
                best_idx = idx;
              }
            }
          }
          output[flat_out] = best;
          if (argmax != nullptr) argmax[flat_out] = best_idx;
        }
      }
    }
  }
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty()) throw std::logic_error("MaxPool2d::backward before forward");
  if (grad_output.numel() != argmax_.size()) {
    throw std::invalid_argument("MaxPool2d::backward: gradient size mismatch");
  }
  Tensor grad_input(cached_input_shape_);
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    grad_input[argmax_[i]] += grad_output[i];
  }
  return grad_input;
}

std::string MaxPool2d::describe() const {
  std::ostringstream os;
  os << "maxpool2d(" << window_ << "x" << window_ << ", s=" << stride_ << ")";
  return os.str();
}

AvgPool2d::AvgPool2d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride == 0 ? window : stride) {
  if (window_ == 0) throw std::invalid_argument("AvgPool2d: zero window");
}

Shape AvgPool2d::output_shape(const Shape& input_shape) const {
  return pooled_shape(input_shape, window_, stride_, "AvgPool2d");
}

Tensor AvgPool2d::forward(const Tensor& input, bool /*training*/) {
  cached_input_shape_ = input.shape();
  return eval(input);
}

void AvgPool2d::eval_into(const Shape& input_shape, std::span<const float> input,
                          std::span<float> output) {
  // Extents computed inline (no Shape construction): eval_into must not
  // allocate.
  const std::size_t batch = input_shape[0];
  const std::size_t channels = input_shape[1];
  const std::size_t h_in = input_shape[2];
  const std::size_t w_in = input_shape[3];
  const std::size_t h_out = (h_in - window_) / stride_ + 1;
  const std::size_t w_out = (w_in - window_) / stride_ + 1;
  const float inv_area = 1.0F / static_cast<float>(window_ * window_);
  std::size_t flat_out = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t oy = 0; oy < h_out; ++oy) {
        for (std::size_t ox = 0; ox < w_out; ++ox, ++flat_out) {
          float acc = 0.0F;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              acc += input[((n * channels + c) * h_in + iy) * w_in + ix];
            }
          }
          output[flat_out] = acc * inv_area;
        }
      }
    }
  }
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  if (cached_input_shape_.empty()) throw std::logic_error("AvgPool2d::backward before forward");
  Tensor grad_input(cached_input_shape_);
  const Shape out_shape = output_shape(cached_input_shape_);
  if (grad_output.shape() != out_shape) {
    throw std::invalid_argument("AvgPool2d::backward: gradient shape mismatch");
  }
  const std::size_t batch = cached_input_shape_[0];
  const std::size_t channels = cached_input_shape_[1];
  const std::size_t h_in = cached_input_shape_[2];
  const std::size_t w_in = cached_input_shape_[3];
  const float inv_area = 1.0F / static_cast<float>(window_ * window_);
  std::size_t flat_out = 0;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      for (std::size_t oy = 0; oy < out_shape[2]; ++oy) {
        for (std::size_t ox = 0; ox < out_shape[3]; ++ox, ++flat_out) {
          const float g = grad_output[flat_out] * inv_area;
          for (std::size_t ky = 0; ky < window_; ++ky) {
            for (std::size_t kx = 0; kx < window_; ++kx) {
              const std::size_t iy = oy * stride_ + ky;
              const std::size_t ix = ox * stride_ + kx;
              grad_input[((n * channels + c) * h_in + iy) * w_in + ix] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::string AvgPool2d::describe() const {
  std::ostringstream os;
  os << "avgpool2d(" << window_ << "x" << window_ << ", s=" << stride_ << ")";
  return os.str();
}

}  // namespace xl::dnn
