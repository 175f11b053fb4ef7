#include "dnn/conv2d.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace xl::dnn {

Conv2d::Conv2d(const Conv2dConfig& config, xl::numerics::Rng& rng)
    : config_(config),
      w_({config.out_channels, config.in_channels, config.kernel, config.kernel}),
      b_({config.out_channels}),
      dw_({config.out_channels, config.in_channels, config.kernel, config.kernel}),
      db_({config.out_channels}) {
  if (config.in_channels == 0 || config.out_channels == 0 || config.kernel == 0 ||
      config.stride == 0) {
    throw std::invalid_argument("Conv2d: zero-sized configuration");
  }
  const double fan_in =
      static_cast<double>(config.in_channels * config.kernel * config.kernel);
  const double bound = std::sqrt(6.0 / fan_in);
  for (std::size_t i = 0; i < w_.numel(); ++i) {
    w_[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
}

Shape Conv2d::output_shape(const Shape& input_shape) const {
  const Im2colShape s = im2col_shape(input_shape, config_);
  return {s.batch, config_.out_channels, s.h_out, s.w_out};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  Tensor out = eval(input);
  // The input copy exists only for backward(); inference skips it (and
  // clears any stale cache so a later backward() fails loudly).
  cached_input_ = training ? input : Tensor();
  return out;
}

void Conv2d::eval_into(const Shape& input_shape, std::span<const float> input,
                       std::span<float> output) {
  const bool qat = quant_ != nullptr && quant_->weights_enabled();
  const Tensor* w = &w_;
  if (qat) {
    effective_w_ = w_;
    fake_quant_symmetric(w_.span(), effective_w_.span(), quant_->weight_bits);
    w = &effective_w_;
  }

  const std::array<std::size_t, 3> dims = {input_shape[1], input_shape[2],
                                           input_shape[3]};
  if (dims != gather_dims_) {
    gather_ = plan_im2col(input_shape, config_);
    patches_.resize(gather_.src.size());
    gather_dims_ = dims;
  }
  const std::size_t pixels = gather_.shape.rows;  // h_out * w_out per sample.
  const std::size_t patch_len = gather_.shape.cols;
  const std::size_t c_out = config_.out_channels;
  for (std::size_t n = 0; n < input_shape[0]; ++n) {
    im2col_gather(gather_, input.data() + n * gather_.sample_numel, patches_.data());
    float* out_n = output.data() + n * c_out * pixels;
    for (std::size_t pixel = 0; pixel < pixels; ++pixel) {
      const float* patch = patches_.data() + pixel * patch_len;
      for (std::size_t co = 0; co < c_out; ++co) {
        const float* filter = w->data() + co * patch_len;
        float acc = b_[co];
        for (std::size_t i = 0; i < patch_len; ++i) acc += filter[i] * patch[i];
        // NCHW: (n, co, oy, ox) with (oy, ox) linearized as `pixel`.
        out_n[co * pixels + pixel] = acc;
      }
    }
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error("Conv2d::backward before forward");
  const Shape out_shape = output_shape(cached_input_.shape());
  if (grad_output.shape() != out_shape) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }
  const bool qat = quant_ != nullptr && quant_->weights_enabled();
  const Tensor* w = qat ? &effective_w_ : &w_;

  const std::size_t batch = cached_input_.dim(0);
  const std::size_t c_in = config_.in_channels;
  const std::size_t c_out = config_.out_channels;
  const std::size_t h_in = cached_input_.dim(2);
  const std::size_t w_in = cached_input_.dim(3);
  const std::size_t h_out = out_shape[2];
  const std::size_t w_out = out_shape[3];
  const std::size_t k = config_.kernel;
  const std::size_t stride = config_.stride;
  const auto pad = static_cast<std::ptrdiff_t>(config_.padding);

  Tensor grad_input(cached_input_.shape());
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t co = 0; co < c_out; ++co) {
      for (std::size_t oy = 0; oy < h_out; ++oy) {
        for (std::size_t ox = 0; ox < w_out; ++ox) {
          const float g = grad_output.at4(n, co, oy, ox);
          if (g == 0.0F) continue;
          db_[co] += g;
          const std::ptrdiff_t iy0 =
              static_cast<std::ptrdiff_t>(oy * stride) - pad;
          const std::ptrdiff_t ix0 =
              static_cast<std::ptrdiff_t>(ox * stride) - pad;
          for (std::size_t ci = 0; ci < c_in; ++ci) {
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h_in)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w_in)) continue;
                const auto uy = static_cast<std::size_t>(iy);
                const auto ux = static_cast<std::size_t>(ix);
                dw_.at4(co, ci, ky, kx) += g * cached_input_.at4(n, ci, uy, ux);
                grad_input.at4(n, ci, uy, ux) += g * w->at4(co, ci, ky, kx);
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::vector<ParamRef> Conv2d::parameters() {
  return {ParamRef{&w_, &dw_}, ParamRef{&b_, &db_}};
}

std::string Conv2d::describe() const {
  std::ostringstream os;
  os << "conv2d(" << config_.in_channels << " -> " << config_.out_channels << ", k="
     << config_.kernel << ", s=" << config_.stride << ", p=" << config_.padding << ")";
  return os.str();
}

}  // namespace xl::dnn
