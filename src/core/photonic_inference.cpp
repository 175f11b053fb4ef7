#include "core/photonic_inference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/execution_plan.hpp"

namespace xl::core {

using dnn::LayerKind;
using dnn::Shape;
using dnn::Tensor;

std::size_t first_non_finite_row(const float* data, std::size_t rows,
                                 std::size_t row_numel) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = data + r * row_numel;
    for (std::size_t i = 0; i < row_numel; ++i) {
      if (!std::isfinite(row[i])) return r;
    }
  }
  return rows;
}

namespace {

/// Shape and finiteness checks every Tensor entry point applies.
void check_batch(const Tensor& batch) {
  if (batch.rank() < 2 || batch.dim(0) == 0) {
    throw std::invalid_argument("PhotonicInference: batch must have rank >= 2 and N >= 1");
  }
  const std::size_t rows = batch.dim(0);
  const std::size_t bad = first_non_finite_row(batch.data(), rows, batch.numel() / rows);
  if (bad < rows) {
    throw std::invalid_argument("PhotonicInference: non-finite input in row " +
                                std::to_string(bad));
  }
}

}  // namespace

PhotonicInferenceEngine::PhotonicInferenceEngine(dnn::Network& network,
                                                 const VdpSimOptions& options)
    : network_(network), engine_(options) {}

// Out of line: ExecutionPlan is incomplete in the header.
PhotonicInferenceEngine::~PhotonicInferenceEngine() = default;

ExecutionPlan& PhotonicInferenceEngine::prepare_plan(const Shape& sample_shape,
                                                     std::size_t max_batch,
                                                     std::size_t first_layer) {
  plan_ = std::make_unique<ExecutionPlan>(*this, sample_shape, max_batch, first_layer);
  return *plan_;
}

void PhotonicInferenceEngine::invalidate_plan() noexcept { plan_.reset(); }

void PhotonicInferenceEngine::infer_views(std::span<const RowViewIn> inputs,
                                          std::span<const RowViewOut> outputs) {
  if (plan_ == nullptr || plan_->first_layer() != 0) {
    throw std::logic_error("PhotonicInference: infer_views without a whole-network plan");
  }
  std::size_t total = 0;
  for (const RowViewIn& v : inputs) total += v.rows;
  if (total > plan_->max_batch()) {
    const Shape shape = plan_->sample_shape();  // Copy: prepare_plan replaces plan_.
    prepare_plan(shape, total);
  }
  plan_->execute(inputs, outputs);
}

void PhotonicInferenceEngine::set_eval_batch_size(std::size_t n) {
  if (n == 0) throw std::invalid_argument("PhotonicInference: zero batch size");
  eval_batch_ = n;
}

ExecutionPlan& PhotonicInferenceEngine::plan_for(const Tensor& batch,
                                                 std::size_t begin_layer) {
  const std::size_t rows = batch.dim(0);
  // Steady-state traffic with a stable shape reuses the cached plan; a new
  // sample shape or a range the plan does not cover compiles from
  // begin_layer, and a batch that outgrew the plan recompiles it as it was.
  const auto covers = [&]() {
    if (plan_ == nullptr || begin_layer < plan_->first_layer()) return false;
    const Shape& planned = plan_->shape_before(begin_layer);
    if (planned.size() != batch.rank()) return false;
    for (std::size_t d = 1; d < planned.size(); ++d) {
      if (planned[d] != batch.dim(d)) return false;
    }
    return true;
  };
  if (!covers()) {
    prepare_plan(batch.shape(), rows, begin_layer);
  } else if (rows > plan_->max_batch()) {
    const Shape shape = plan_->sample_shape();  // Copy: prepare_plan replaces plan_.
    prepare_plan(shape, rows, plan_->first_layer());
  }
  return *plan_;
}

Tensor PhotonicInferenceEngine::infer_batch(const Tensor& batch) {
  return infer_range(batch, 0, network_.layer_count());
}

std::size_t PhotonicInferenceEngine::accelerated_layers_before(
    std::size_t end_layer) const {
  const std::size_t end = std::min(end_layer, network_.layer_count());
  std::size_t count = 0;
  for (std::size_t i = 0; i < end; ++i) {
    const LayerKind kind = network_.layer(i).kind_id();
    if (kind == LayerKind::kDense || kind == LayerKind::kConv) ++count;
  }
  return count;
}

Tensor PhotonicInferenceEngine::infer_range(const Tensor& batch,
                                            std::size_t begin_layer,
                                            std::size_t end_layer) {
  check_batch(batch);
  const std::size_t end = std::min(end_layer, network_.layer_count());
  if (begin_layer > end) {
    throw std::invalid_argument("PhotonicInference: begin_layer past end_layer");
  }
  if (begin_layer == end) return batch;
  ExecutionPlan& plan = plan_for(batch, begin_layer);
  const std::size_t rows = batch.dim(0);
  Shape out_shape = plan.shape_before(end);
  out_shape[0] = rows;
  Tensor out(out_shape);
  const RowViewIn in{batch.data(), rows};
  const RowViewOut ov{out.data(), rows};
  plan.execute({&in, 1}, {&ov, 1}, begin_layer, end);
  return out;
}

double PhotonicInferenceEngine::evaluate_accuracy(const dnn::Dataset& data,
                                                  std::size_t count) {
  if (count == 0 || count > data.size()) {
    throw std::invalid_argument("PhotonicInference: bad sample count");
  }
  const std::size_t row_numel = data.images.numel() / data.size();
  const std::size_t bad = first_non_finite_row(data.images.data(), count, row_numel);
  if (bad < count) {
    throw std::invalid_argument("PhotonicInference: non-finite input in dataset row " +
                                std::to_string(bad));
  }
  std::size_t correct = 0;
  for (std::size_t start = 0; start < count; start += eval_batch_) {
    const std::size_t n = std::min(eval_batch_, count - start);
    const Tensor batch = dnn::batch_images(data, start, n);
    const Tensor logits = infer_batch(batch);
    for (std::size_t b = 0; b < n; ++b) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < logits.dim(1); ++c) {
        if (logits.at2(b, c) > logits.at2(b, best)) best = c;
      }
      if (best == data.labels[start + b]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(count);
}

}  // namespace xl::core
