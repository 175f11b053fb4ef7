#include "core/execution_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "dnn/conv2d.hpp"
#include "dnn/dense.hpp"

namespace xl::core {

using dnn::LayerKind;
using dnn::Shape;

namespace {

std::size_t shape_numel(const Shape& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return n;
}

std::size_t round64(std::size_t bytes) {
  return (bytes + 63U) & ~static_cast<std::size_t>(63U);
}

}  // namespace

ExecutionPlan::ExecutionPlan(PhotonicInferenceEngine& engine,
                             const Shape& sample_shape, std::size_t max_batch,
                             std::size_t first_layer)
    : engine_(engine), first_layer_(first_layer) {
  if (sample_shape.size() < 2) {
    throw std::invalid_argument("ExecutionPlan: sample shape must have rank >= 2");
  }
  if (max_batch == 0) {
    throw std::invalid_argument("ExecutionPlan: max_batch must be >= 1");
  }
  if (first_layer >= engine_.network().layer_count()) {
    throw std::invalid_argument("ExecutionPlan: first layer past the network");
  }
  sample_shape_ = sample_shape;
  sample_shape_[0] = 1;
  sample_numel_ = shape_numel(sample_shape_);
  max_batch_ = max_batch;
  stats_.max_batch = max_batch;
  layer_dt_us_ = engine_.engine().options().effects.thermal_stage.dt_us;

  dnn::Network& net = engine_.network();
  BatchedVdpEngine& vdp = engine_.engine();

  Shape cur = sample_shape_;
  std::size_t max_boundary = sample_numel_;  ///< Largest per-sample boundary.
  std::size_t max_patch_elems = 0;           ///< Largest full-batch patch matrix.
  std::size_t max_y_elems = 0;               ///< Largest full-batch GEMM output.
  std::size_t max_scratch = 0;               ///< Peak matmul arena scratch.
  std::size_t max_k = 0;                     ///< Longest GEMM operand.

  steps_.reserve(net.layer_count() - first_layer);
  for (std::size_t i = first_layer; i < net.layer_count(); ++i) {
    dnn::Layer& layer = net.layer(i);
    Step step;
    step.layer = &layer;
    step.in_shape = cur;
    step.in_numel = shape_numel(cur);
    step.out_shape = layer.output_shape(cur);
    step.out_numel = shape_numel(step.out_shape);

    switch (layer.kind_id()) {
      case LayerKind::kDense: {
        auto& dense = static_cast<dnn::Dense&>(layer);
        step.kind = StepKind::kDenseGemm;
        step.gemm_k = dense.in_features();
        step.gemm_outputs = dense.out_features();
        step.packed =
            vdp.pack_weights(dense.weights().data(), step.gemm_outputs, step.gemm_k);
        max_y_elems = std::max(max_y_elems, max_batch * step.gemm_outputs);
        max_scratch = std::max(
            max_scratch, vdp.matmul_workspace_bytes(max_batch, step.gemm_k));
        max_k = std::max(max_k, step.gemm_k);
        ++stats_.planned_layers;
        break;
      }
      case LayerKind::kConv: {
        auto& conv = static_cast<dnn::Conv2d&>(layer);
        step.kind = StepKind::kConvGemm;
        step.gather = dnn::plan_im2col(cur, conv.config());
        step.gemm_k = step.gather.shape.cols;
        step.gemm_outputs = conv.config().out_channels;
        step.pixels = step.out_shape[2] * step.out_shape[3];
        step.packed =
            vdp.pack_weights(conv.weights().data(), step.gemm_outputs, step.gemm_k);
        const std::size_t gemm_rows = max_batch * step.gather.shape.rows;
        max_patch_elems = std::max(max_patch_elems, gemm_rows * step.gemm_k);
        max_y_elems = std::max(max_y_elems, gemm_rows * step.gemm_outputs);
        max_scratch = std::max(
            max_scratch, vdp.matmul_workspace_bytes(gemm_rows, step.gemm_k));
        max_k = std::max(max_k, step.gemm_k);
        ++stats_.planned_layers;
        break;
      }
      case LayerKind::kPool:
      case LayerKind::kActivation:
      case LayerKind::kOther: {
        step.kind = layer.inference_identity() ? StepKind::kView : StepKind::kEval;
        ++stats_.planned_layers;
        break;
      }
    }

    max_boundary = std::max(max_boundary, step.out_numel);
    cur = step.out_shape;
    steps_.push_back(std::move(step));
  }
  output_sample_shape_ = cur;
  output_numel_ = shape_numel(cur);

  // Every GEMM step keeps its own persistent arm-transmission table cache;
  // the caches coexist for the plan's lifetime, so their arena footprint is
  // the sum over steps (not the max).
  std::size_t table_bytes = 0;
  for (const Step& step : steps_) {
    if (step.kind != StepKind::kDenseGemm && step.kind != StepKind::kConvGemm) {
      continue;
    }
    const std::size_t te = vdp.gemm_table_elems(step.gemm_k);
    table_bytes += round64(te * sizeof(double)) +
                   round64(step.gemm_outputs * te * sizeof(double));
  }

  // One arena holds everything: the two ping-pong activation buffers, the
  // gathered patch matrix, the GEMM output, the per-step table caches, plus
  // headroom for the engine's per-call mark/rewind scratch. Sized so the
  // steady state never regrows.
  const std::size_t act_elems = max_boundary * max_batch;
  const std::size_t capacity = 2 * round64(act_elems * sizeof(float)) +
                               round64(max_patch_elems * sizeof(float)) +
                               round64(max_y_elems * sizeof(double)) +
                               table_bytes + max_scratch + 1024;
  arena_.reserve(capacity);
  act_a_ = arena_.make_span<float>(act_elems);
  act_b_ = arena_.make_span<float>(act_elems);
  if (max_patch_elems > 0) patches_ = arena_.make_span<float>(max_patch_elems);
  if (max_y_elems > 0) y_ = arena_.make_span<double>(max_y_elems);
  for (Step& step : steps_) {
    if (step.kind != StepKind::kDenseGemm && step.kind != StepKind::kConvGemm) {
      continue;
    }
    const std::size_t te = vdp.gemm_table_elems(step.gemm_k);
    step.tables.idle = arena_.make_span<double>(te);
    step.tables.carry = arena_.make_span<double>(step.gemm_outputs * te);
  }

  // Pre-size the engine's per-thread vdp scratch so the first planned matmul
  // is already allocation-free.
  if (max_k > 0) vdp.warm_thread_scratch(max_k);

  shape_tmp_.reserve(8);
}

void ExecutionPlan::run_dense(Step& step, std::size_t rows, const float* in,
                              float* out) {
  engine_.engine().photonic_matmul(in, rows, step.gemm_k, step.packed, y_.data(),
                                   arena_, step.tables);
  auto& dense = static_cast<dnn::Dense&>(*step.layer);
  const std::size_t out_f = step.gemm_outputs;
  for (std::size_t b = 0; b < rows; ++b) {
    for (std::size_t o = 0; o < out_f; ++o) {
      out[b * out_f + o] =
          static_cast<float>(y_[b * out_f + o] + dense.bias()[o]);
    }
  }
  engine_.stats_.photonic_matmuls += 1;
  engine_.stats_.photonic_dot_products += rows * out_f;
  engine_.stats_.photonic_macs += rows * out_f * step.gemm_k;
}

void ExecutionPlan::run_conv(Step& step, std::size_t rows, const float* in,
                             float* out) {
  const dnn::Im2colPlan& g = step.gather;
  const std::size_t rows_per_sample = g.shape.rows;
  const std::size_t cols = g.shape.cols;
  for (std::size_t r = 0; r < rows; ++r) {
    dnn::im2col_gather(g, in + r * step.in_numel,
                       patches_.data() + r * rows_per_sample * cols);
  }
  const std::size_t gemm_rows = rows * rows_per_sample;
  engine_.engine().photonic_matmul(patches_.data(), gemm_rows, cols, step.packed,
                                   y_.data(), arena_, step.tables);

  auto& conv = static_cast<dnn::Conv2d&>(*step.layer);
  const std::size_t out_ch = step.gemm_outputs;
  const std::size_t pixels = step.pixels;
  for (std::size_t gr = 0; gr < gemm_rows; ++gr) {
    const std::size_t n = gr / pixels;
    const std::size_t pixel = gr % pixels;
    for (std::size_t co = 0; co < out_ch; ++co) {
      out[(n * out_ch + co) * pixels + pixel] =
          static_cast<float>(y_[gr * out_ch + co] + conv.bias()[co]);
    }
  }
  engine_.stats_.photonic_matmuls += 1;
  engine_.stats_.photonic_dot_products += gemm_rows * out_ch;
  engine_.stats_.photonic_macs += gemm_rows * out_ch * cols;
}

const Shape& ExecutionPlan::shape_before(std::size_t layer) const {
  if (layer < first_layer_ || layer > end_layer()) {
    throw std::out_of_range("ExecutionPlan: layer outside the compiled range");
  }
  return layer == end_layer() ? output_sample_shape_ : steps_[layer - first_layer_].in_shape;
}

void ExecutionPlan::run_eval(const Step& step, std::size_t rows, const float* in,
                             float* out) {
  shape_tmp_.assign(step.in_shape.begin(), step.in_shape.end());
  shape_tmp_[0] = rows;
  step.layer->eval_into(shape_tmp_, {in, rows * step.in_numel},
                        {out, rows * step.out_numel});
}

void ExecutionPlan::reference_pass(const Step& step, std::size_t rows,
                                   const float* in, const float* out) {
  std::vector<float> reference(rows * step.out_numel);
  run_eval(step, rows, in, reference.data());
  double& worst = engine_.stats_.max_abs_layer_error;
  for (std::size_t j = 0; j < reference.size(); ++j) {
    worst = std::max(worst, static_cast<double>(std::abs(out[j] - reference[j])));
  }
}

void ExecutionPlan::execute(std::span<const RowViewIn> inputs,
                            std::span<const RowViewOut> outputs,
                            std::size_t begin_layer, std::size_t end_layer) {
  if (inputs.size() != outputs.size()) {
    throw std::invalid_argument("ExecutionPlan::execute: view count mismatch");
  }
  if (begin_layer < first_layer_ || begin_layer >= end_layer ||
      end_layer > this->end_layer()) {
    throw std::invalid_argument("ExecutionPlan::execute: layer range outside the plan");
  }
  std::size_t total = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].rows != outputs[i].rows) {
      throw std::invalid_argument("ExecutionPlan::execute: paired view row mismatch");
    }
    total += inputs[i].rows;
  }
  if (total == 0) {
    throw std::invalid_argument("ExecutionPlan::execute: empty micro-batch");
  }
  if (total > max_batch_) {
    throw std::invalid_argument("ExecutionPlan::execute: rows exceed plan max_batch");
  }
  const std::span<Step> range{steps_.data() + (begin_layer - first_layer_),
                              end_layer - begin_layer};
  const std::size_t in_numel = range.front().in_numel;
  const std::size_t out_numel = range.back().out_numel;
  const bool track_error = engine_.track_layer_error();

  // Gather: requests land back-to-back in the first activation buffer.
  float* cur = act_a_.data();
  float* next = act_b_.data();
  std::size_t off = 0;
  for (const RowViewIn& v : inputs) {
    std::memcpy(cur + off * in_numel, v.data, v.rows * in_numel * sizeof(float));
    off += v.rows;
  }

  for (Step& step : range) {
    switch (step.kind) {
      case StepKind::kDenseGemm:
      case StepKind::kConvGemm:
        if (step.kind == StepKind::kDenseGemm) {
          run_dense(step, total, cur, next);
        } else {
          run_conv(step, total, cur, next);
        }
        if (track_error) reference_pass(step, total, cur, next);
        std::swap(cur, next);
        engine_.engine().advance_effects(layer_dt_us_);
        break;
      case StepKind::kView:
        // Pure shape change (flatten) or inference identity (dropout):
        // bytes stay where they are.
        break;
      case StepKind::kEval:
        run_eval(step, total, cur, next);
        std::swap(cur, next);
        break;
    }
  }

  // Scatter: each request's rows go straight to its caller-held buffer.
  off = 0;
  for (const RowViewOut& v : outputs) {
    std::memcpy(v.data, cur + off * out_numel, v.rows * out_numel * sizeof(float));
    off += v.rows;
  }

  ++stats_.executions;
  if (begin_layer == 0 && end_layer == engine_.network().layer_count()) {
    engine_.stats_.samples_inferred += total;
    engine_.stats_.batches_inferred += 1;
  }
}

}  // namespace xl::core
