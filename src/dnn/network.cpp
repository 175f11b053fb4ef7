#include "dnn/network.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "dnn/conv2d.hpp"
#include "dnn/dense.hpp"

namespace xl::dnn {

Network::Network(Network&& other) noexcept
    : layers_(std::move(other.layers_)),
      ranges_(std::move(other.ranges_)),
      quant_(other.quant_) {
  for (const LayerPtr& l : layers_) l->set_quantization(&quant_);
}

Network& Network::operator=(Network&& other) noexcept {
  if (this != &other) {
    layers_ = std::move(other.layers_);
    ranges_ = std::move(other.ranges_);
    quant_ = other.quant_;
    for (const LayerPtr& l : layers_) l->set_quantization(&quant_);
  }
  return *this;
}

Network& Network::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Network::add: null layer");
  layer->set_quantization(&quant_);
  layers_.push_back(std::move(layer));
  ranges_.emplace_back();
  return *this;
}

Tensor Network::forward(const Tensor& input, bool training) {
  Tensor x = input;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    x = layers_[i]->forward(x, training);
    if (quant_.activations_enabled() && layers_[i]->is_activation()) {
      if (training) ranges_[i].observe(x.span());
      ranges_[i].quantize_inplace(x.span(), quant_.activation_bits);
    }
  }
  return x;
}

Tensor Network::backward(const Tensor& grad) {
  Tensor g = grad;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    g = layers_[i]->backward(g);
  }
  return g;
}

std::vector<ParamRef> Network::parameters() {
  std::vector<ParamRef> out;
  for (const LayerPtr& l : layers_) {
    for (const ParamRef& p : l->parameters()) out.push_back(p);
  }
  return out;
}

std::size_t Network::parameter_count() {
  std::size_t acc = 0;
  for (const LayerPtr& l : layers_) acc += l->parameter_count();
  return acc;
}

void Network::set_quantization(const QuantizationSpec& spec) {
  quant_ = spec;
  // Layers hold a pointer to quant_, so nothing else to propagate.
}

void Network::reset_activation_ranges() {
  for (ActivationRange& r : ranges_) r.reset();
}

Shape Network::output_shape(const Shape& input_shape) const {
  Shape s = input_shape;
  for (const LayerPtr& l : layers_) s = l->output_shape(s);
  return s;
}

std::vector<LayerSpec> Network::export_specs(const Shape& input_shape) const {
  std::vector<LayerSpec> specs;
  Shape s = input_shape;
  int conv_idx = 0;
  int dense_idx = 0;
  for (const LayerPtr& l : layers_) {
    const Shape out = l->output_shape(s);
    switch (l->kind_id()) {
      case LayerKind::kConv: {
        const auto& conv = static_cast<const Conv2d&>(*l);
        specs.push_back(conv_spec("conv" + std::to_string(++conv_idx),
                                  conv.config().in_channels, conv.config().out_channels,
                                  conv.config().kernel, out[2], out[3],
                                  conv.config().stride));
        break;
      }
      case LayerKind::kDense: {
        const auto& dense = static_cast<const Dense&>(*l);
        specs.push_back(dense_spec("fc" + std::to_string(++dense_idx),
                                   dense.in_features(), dense.out_features()));
        break;
      }
      case LayerKind::kPool: {
        LayerSpec p;
        p.kind = LayerKind::kPool;
        p.name = l->kind();
        specs.push_back(p);
        break;
      }
      case LayerKind::kActivation: {
        LayerSpec a;
        a.kind = LayerKind::kActivation;
        a.name = l->kind();
        specs.push_back(a);
        break;
      }
      case LayerKind::kOther:
        break;  // Flatten, dropout, batchnorm: no compute mapped.
    }
    s = out;
  }
  return specs;
}

std::string Network::summary(const Shape& input_shape) const {
  std::ostringstream os;
  Shape s = input_shape;
  for (const LayerPtr& l : layers_) {
    s = l->output_shape(s);
    os << "  " << l->describe() << " -> " << shape_to_string(s) << '\n';
  }
  return os.str();
}

}  // namespace xl::dnn
