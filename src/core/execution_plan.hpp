// ExecutionPlan — the compiled, arena-backed inference program of one engine,
// and the only forward path PhotonicInferenceEngine has.
//
// A compiled plan hoists everything that depends only on (network, first
// layer, sample shape, max batch) out of the hot path:
//
//   * per accelerated layer, the weight-side GEMM operand is packed once
//     (BatchedVdpEngine::pack_weights) — quantized detunings, sign/zero
//     tables, DAC row scales;
//   * per CONV layer, the im2col tap indices are precomputed into a gather
//     map (dnn::plan_im2col) applied per sample with no index arithmetic
//     rediscovery;
//   * every electronic layer resolves its dispatch at compile time: identity
//     layers (dropout, flatten) vanish, eval_into-capable layers write
//     straight into the ping-pong activation buffers, anything else falls
//     back to Layer::forward (counted in PlanStats::fallback_layers);
//   * all intermediate storage — activations, patches, GEMM outputs, the
//     engine's per-call scratch and each GEMM step's persistent
//     arm-transmission table cache (GemmTableCache, revalidated by effect
//     time stamp) — lives in one bump-pointer numerics::Arena sized at
//     compile time.
//
// A plan covers the layers [first_layer, layer_count) of the network and
// can run any contiguous sub-range of them: execute() gathers rows directly
// from caller-held RowViewIn views, runs the steps, and scatters the result
// to the paired RowViewOut views. After the first (warm-up) execution the
// steady state performs zero heap allocations — unless the engine's opt-in
// per-layer reference pass (track_layer_error) is on, which runs each GEMM
// layer's float forward() beside the photonic step.
//
// Determinism contract: logits are a pure function of (inputs, weights,
// effect timeline) — independent of batch composition, the range split, the
// executor width and the SIMD tier (tests/test_hotpath.cpp holds the plan to
// a layer-by-layer reference forward across effect sets and batch shapes).
//
// Thread safety: none. One plan per engine, driven by one worker at a time.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/im2col.hpp"
#include "dnn/tensor.hpp"
#include "numerics/arena.hpp"

namespace xl::core {

/// Compile-time and run-time telemetry of one plan.
struct PlanStats {
  std::size_t executions = 0;       ///< execute() calls served.
  std::size_t planned_layers = 0;   ///< Layers compiled to allocation-free steps.
  std::size_t fallback_layers = 0;  ///< Layers still routed through forward().
  std::size_t max_batch = 0;        ///< Row capacity this plan was compiled for.
};

class ExecutionPlan {
 public:
  /// Compile the layers [first_layer, layer_count) of `engine`'s network
  /// over samples of `sample_shape` (the shape entering layer first_layer;
  /// batch dimension ignored) and micro-batches of up to `max_batch` rows.
  /// Packs weights, precomputes gather maps, and carves all workspaces from
  /// the plan's arena. Throws std::invalid_argument on unusable shapes.
  ExecutionPlan(PhotonicInferenceEngine& engine, const dnn::Shape& sample_shape,
                std::size_t max_batch, std::size_t first_layer = 0);

  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// Run the layers [begin_layer, end_layer) over the concatenation of
  /// `inputs` (paired 1:1 with `outputs`; each pair must agree on rows).
  /// Input rows have shape_before(begin_layer), output rows
  /// shape_before(end_layer); first_layer() <= begin_layer < end_layer <=
  /// end_layer(). Total rows must be in [1, max_batch()] — the engine
  /// recompiles on growth before calling this. Advances the engine's effect
  /// timeline by one thermal dt per accelerated layer run; the engine's
  /// sample/batch counters accrue only when the range is the whole network.
  void execute(std::span<const RowViewIn> inputs, std::span<const RowViewOut> outputs,
               std::size_t begin_layer, std::size_t end_layer);

  /// The whole compiled program, [first_layer(), end_layer()).
  void execute(std::span<const RowViewIn> inputs, std::span<const RowViewOut> outputs) {
    execute(inputs, outputs, first_layer_, end_layer());
  }

  /// Network layer index of the first compiled step.
  [[nodiscard]] std::size_t first_layer() const noexcept { return first_layer_; }
  /// One past the last compiled layer (the network's layer count).
  [[nodiscard]] std::size_t end_layer() const noexcept {
    return first_layer_ + steps_.size();
  }
  /// Batch-1 shape entering `layer` (first_layer() <= layer <= end_layer();
  /// end_layer() gives the output shape).
  [[nodiscard]] const dnn::Shape& shape_before(std::size_t layer) const;

  [[nodiscard]] const dnn::Shape& sample_shape() const noexcept {
    return sample_shape_;
  }
  [[nodiscard]] const dnn::Shape& output_sample_shape() const noexcept {
    return output_sample_shape_;
  }
  /// Floats per input sample / per output sample.
  [[nodiscard]] std::size_t sample_numel() const noexcept { return sample_numel_; }
  [[nodiscard]] std::size_t output_numel() const noexcept { return output_numel_; }
  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }

  [[nodiscard]] const PlanStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const numerics::ArenaStats& arena_stats() const noexcept {
    return arena_.stats();
  }

 private:
  enum class StepKind : unsigned char {
    kDenseGemm,  ///< Photonic FC GEMM + bias.
    kConvGemm,   ///< Gather -> photonic patch GEMM -> scatter + bias.
    kView,       ///< inference_identity(): shape-only, no byte moves.
    kEval,       ///< supports_eval_into(): in-place-capable electronic layer.
    kFallback,   ///< Generic Layer::forward (allocates; counted).
  };

  struct Step {
    StepKind kind = StepKind::kFallback;
    dnn::Layer* layer = nullptr;
    dnn::Shape in_shape;   ///< Batch-1 basis shape entering the layer.
    dnn::Shape out_shape;  ///< Batch-1 basis shape leaving the layer.
    std::size_t in_numel = 0;   ///< Per-sample floats in.
    std::size_t out_numel = 0;  ///< Per-sample floats out.
    // kDenseGemm / kConvGemm:
    PackedGemmWeights packed;
    GemmTableCache tables;  ///< Arena-carved arm-transmission table cache.
    std::size_t gemm_k = 0;        ///< Operand length (in features / patch len).
    std::size_t gemm_outputs = 0;  ///< Output features / conv out channels.
    // kConvGemm only:
    dnn::Im2colPlan gather;
    std::size_t pixels = 0;  ///< h_out * w_out (patch rows per sample).
  };

  // GEMM steps are non-const: the engine revalidates/restamps the step's
  // table cache in place.
  void run_dense(Step& step, std::size_t rows, const float* in, float* out);
  void run_conv(Step& step, std::size_t rows, const float* in, float* out);
  void run_fallback(const Step& step, std::size_t rows, const float* in, float* out);
  /// Copy `rows` samples entering `step` into a Tensor (allocates).
  [[nodiscard]] dnn::Tensor input_tensor(const Step& step, std::size_t rows,
                                         const float* in);
  /// track_layer_error: the layer's float forward() on the GEMM step's
  /// input, folded into the engine's max_abs_layer_error.
  void reference_pass(const Step& step, std::size_t rows, const float* in,
                      const float* out);

  PhotonicInferenceEngine& engine_;
  std::size_t first_layer_ = 0;     ///< Network index of steps_[0].
  dnn::Shape sample_shape_;         ///< Batch-1 basis input shape.
  dnn::Shape output_sample_shape_;  ///< Batch-1 basis output shape.
  std::size_t sample_numel_ = 0;
  std::size_t output_numel_ = 0;
  std::size_t max_batch_ = 0;
  double layer_dt_us_ = 0.0;  ///< Thermal dt per accelerated layer.
  std::vector<Step> steps_;
  PlanStats stats_;

  numerics::Arena arena_;
  // Arena-carved persistent workspaces (spans into arena_; never freed).
  std::span<float> act_a_;
  std::span<float> act_b_;
  std::span<float> patches_;  ///< Gathered im2col rows (conv steps only).
  std::span<double> y_;       ///< GEMM output (largest step).

  dnn::Shape shape_tmp_;  ///< Pre-reserved scratch for eval_into shapes.
};

}  // namespace xl::core
