// Whole-model functional photonic inference on the batched execution engine.
//
// Executes a trained dnn::Network with every CONV and FC layer lowered to
// batched photonic GEMMs on BatchedVdpEngine (quantizers, Lorentzian MR
// transmissions, inter-channel crosstalk, balanced photodetection) while
// pooling/activations run electronically — the hardware/software split of
// Fig. 3. CONV layers go through the shared im2col lowering, so a whole
// batch of images becomes one patch-matrix GEMM; FC layers map directly.
//
// There is one forward path: a cached ExecutionPlan (core/execution_plan.hpp)
// compiled on first use and recompiled when the sample shape changes or a
// batch outgrows it. infer_batch(), evaluate_accuracy() and the serving
// shards' infer_views() run the whole plan; infer_range() runs a contiguous
// layer range of it (xlbench's per-layer traced stitch). The
// exact software reference pass per GEMM layer (for max_abs_layer_error) is
// opt-in via set_track_layer_error and runs inside the plan.
//
// Inputs holding a NaN or an infinity are rejected with
// std::invalid_argument naming the first offending row: a non-finite value
// must never come back as a plausible logit.
//
// When the engine's effect pipeline has a thermal stage, simulated time
// advances by one thermal dt per accelerated layer, so drift evolves across
// the depth of the network (and across successive batches) exactly as the
// chip would experience it.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/datasets.hpp"
#include "dnn/network.hpp"

namespace xl::core {

class ExecutionPlan;

/// Index of the first of `rows` consecutive rows of `row_numel` floats that
/// holds a NaN or an infinity; `rows` when every value is finite.
[[nodiscard]] std::size_t first_non_finite_row(const float* data, std::size_t rows,
                                               std::size_t row_numel) noexcept;

/// Non-owning view of one caller-held block of input samples (row-major,
/// `rows` consecutive samples). Planned execution gathers a micro-batch
/// straight from these views — no intermediate Tensor per request.
struct RowViewIn {
  const float* data = nullptr;
  std::size_t rows = 0;
};

/// Destination view paired 1:1 with a RowViewIn: the corresponding output
/// rows are scattered straight into the caller's buffer.
struct RowViewOut {
  float* data = nullptr;
  std::size_t rows = 0;
};

struct PhotonicInferenceStats {
  std::size_t photonic_dot_products = 0;
  std::size_t photonic_macs = 0;
  std::size_t photonic_matmuls = 0;    ///< One per accelerated layer per batch.
  std::size_t samples_inferred = 0;
  std::size_t batches_inferred = 0;
  /// vs float reference, pre-activation; only accumulated when
  /// track_layer_error is enabled (opt-in: it costs a full software forward
  /// pass per accelerated layer).
  double max_abs_layer_error = 0.0;

  /// Accumulate another engine's counters into this one (counter sums, max
  /// of the layer errors). The serving runtime merges per-shard stats
  /// through this under its stats lock, so shard engines never share
  /// mutable counters across threads.
  void merge(const PhotonicInferenceStats& other) noexcept {
    photonic_dot_products += other.photonic_dot_products;
    photonic_macs += other.photonic_macs;
    photonic_matmuls += other.photonic_matmuls;
    samples_inferred += other.samples_inferred;
    batches_inferred += other.batches_inferred;
    if (other.max_abs_layer_error > max_abs_layer_error) {
      max_abs_layer_error = other.max_abs_layer_error;
    }
  }
};

/// Runs a network photonically. The network is inspected layer by layer;
/// Conv2d and Dense layers are lowered to batched VDP GEMMs.
class PhotonicInferenceEngine {
 public:
  /// `network` must outlive the engine. Layers outside the accelerated set
  /// (kConv/kDense) run electronically via their own forward().
  PhotonicInferenceEngine(dnn::Network& network, const VdpSimOptions& options = {});
  ~PhotonicInferenceEngine();

  /// Photonic logits for a whole batch (batch dimension N >= 1): the whole
  /// network through the cached plan. Every accelerated layer issues one
  /// photonic GEMM over the batch.
  [[nodiscard]] dnn::Tensor infer_batch(const dnn::Tensor& batch);

  /// Compile (or recompile) the plan for the layers [first_layer, end) over
  /// samples of sample_shape (the shape entering first_layer; its batch
  /// dimension is ignored) and batches of up to max_batch rows.
  ExecutionPlan& prepare_plan(const dnn::Shape& sample_shape, std::size_t max_batch,
                              std::size_t first_layer = 0);

  /// Drop the cached plan. The plan packs the weights when it compiles, so
  /// mutating layer weights or topology afterwards requires this call; the
  /// next inference recompiles.
  void invalidate_plan() noexcept;

  /// The cached plan, or nullptr when none is compiled.
  [[nodiscard]] const ExecutionPlan* plan() const noexcept { return plan_.get(); }

  /// Whole-network inference over caller-held row views: inputs are
  /// gathered from `inputs` and logits scattered to the paired `outputs`
  /// with no intermediate tensors. Requires a whole-network plan
  /// (prepare_plan with first_layer 0); the plan recompiles automatically
  /// when the total row count exceeds its max batch. Effects advance exactly
  /// as infer_batch does. Inputs are not checked for finiteness: callers
  /// validate (ServingRuntime::submit does).
  void infer_views(std::span<const RowViewIn> inputs,
                   std::span<const RowViewOut> outputs);

  /// Run only the layer range [begin, end) of the network on `batch`
  /// (end is clamped to layer_count(); an empty range returns the batch).
  /// The cached plan serves the range when it covers begin_layer at this
  /// input shape; otherwise the plan recompiles starting at begin_layer, so
  /// a fresh engine whose first call starts mid-network works. xlbench's
  /// traced pass runs one forward as a chain of single-layer ranges:
  /// because every accelerated layer advances simulated time identically
  /// whichever call executes it, stitching ranges back together is
  /// bit-identical to one infer_batch() call — provided every engine
  /// involved sits on the same effect timeline first (reset_effects + one
  /// advance per accelerated layer already executed).
  /// Sample/batch counters accrue only on full passes (begin == 0 &&
  /// end >= count).
  [[nodiscard]] dnn::Tensor infer_range(const dnn::Tensor& batch,
                                        std::size_t begin_layer,
                                        std::size_t end_layer);

  /// Number of accelerated (kConv/kDense) layers in [0, end_layer) — the
  /// count of thermal dt steps a range execution advances. Used by
  /// model-parallel peers to fast-forward their effect timeline to the
  /// partition boundary.
  [[nodiscard]] std::size_t accelerated_layers_before(std::size_t end_layer) const;

  /// Classification accuracy over a dataset subset [0, count), evaluated in
  /// batches of eval_batch_size().
  [[nodiscard]] double evaluate_accuracy(const dnn::Dataset& data, std::size_t count);

  /// Enable/disable the exact per-layer software reference pass feeding
  /// stats().max_abs_layer_error: each GEMM step of the plan also runs the
  /// layer's float forward() on the same input (allocating; off by default).
  void set_track_layer_error(bool enabled) noexcept { track_layer_error_ = enabled; }
  [[nodiscard]] bool track_layer_error() const noexcept { return track_layer_error_; }

  /// Batch size used by evaluate_accuracy (default 16).
  void set_eval_batch_size(std::size_t n);
  [[nodiscard]] std::size_t eval_batch_size() const noexcept { return eval_batch_; }

  [[nodiscard]] const PhotonicInferenceStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = PhotonicInferenceStats{}; }

  [[nodiscard]] const BatchedVdpEngine& engine() const noexcept { return engine_; }
  /// Mutable engine access (e.g. BatchedVdpEngine::reset_effects between
  /// experiment arms).
  [[nodiscard]] BatchedVdpEngine& engine() noexcept { return engine_; }

  /// The network this engine executes (same reference passed at construction).
  [[nodiscard]] dnn::Network& network() noexcept { return network_; }

 private:
  friend class ExecutionPlan;  ///< Plans accrue the engine's stats counters.

  /// The cached plan, recompiled unless it covers begin_layer at `batch`'s
  /// sample shape with room for its rows.
  ExecutionPlan& plan_for(const dnn::Tensor& batch, std::size_t begin_layer);

  dnn::Network& network_;
  BatchedVdpEngine engine_;
  PhotonicInferenceStats stats_;
  bool track_layer_error_ = false;
  std::size_t eval_batch_ = 16;
  std::unique_ptr<ExecutionPlan> plan_;  ///< Cached compiled plan (or null).
};

}  // namespace xl::core
