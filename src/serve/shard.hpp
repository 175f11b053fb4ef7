// One accelerator shard: a private PhotonicInferenceEngine per served model.
//
// A shard is the unit of hardware parallelism the serving runtime scales
// over. Every shard owns, for each registered model, a replica network plus
// a PhotonicInferenceEngine constructed from the shared immutable
// VdpSimOptions — so each shard has its own thermal time state, its own
// LUTs, and no mutable state shared with any other shard. All replicas and
// engines are built eagerly at construction (before worker threads exist),
// keeping the hot path allocation- and lock-free except for the final stats
// merge.
//
// Determinism: execute() returns every shard engine to its boot (t = 0)
// effect state before running a micro-batch, so the batch sees the canonical
// effect timeline regardless of which shard runs it or what ran before.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/mapper.hpp"
#include "core/photonic_inference.hpp"
#include "core/vdp_simulator.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_repository.hpp"

namespace xl::serve {

/// Telemetry of one shard; merged into ServingStats by the runtime.
struct ShardStats {
  std::size_t batches = 0;
  std::size_t samples = 0;
  std::size_t requests = 0;
  double busy_us = 0.0;  ///< Summed service time (compute + pacing).
  std::vector<std::size_t> batch_rows_histogram;  ///< [rows] -> batches.
  core::PhotonicInferenceStats inference;         ///< Summed over models.
  /// (admission sequence, admission -> completion latency in us).
  std::vector<std::pair<std::uint64_t, double>> latencies;
};

class AcceleratorShard {
 public:
  /// Builds one engine per registered model. `options` supplies max_batch
  /// (histogram sizing) and the optional hardware-time pacing knobs.
  AcceleratorShard(std::size_t id, const ModelRepository& models,
                   const core::VdpSimOptions& vdp, const ServingOptions& options);

  /// Execute one micro-batch end to end: reset the engine's effect pipeline
  /// to boot state, run the batch through the engine's cached ExecutionPlan
  /// over row views — request inputs are gathered and logits scattered
  /// straight into each request's preallocated result tensor, with no
  /// coalesced copy and no per-request allocation — and fulfill every
  /// promise (values on success, the thrown exception otherwise).
  void execute(MicroBatch&& batch);

  /// Race-free copy of this shard's counters (callable while serving).
  [[nodiscard]] ShardStats snapshot() const;

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

  /// Simulated service time for a micro-batch of `rows` samples of `model`:
  /// the EventScheduler batch makespan under the pacing architecture,
  /// scaled by pace_scale. 0 when pacing is off.
  [[nodiscard]] double paced_service_us(const std::string& model, std::size_t rows);

 private:
  struct ShardModel {
    dnn::Network network;  ///< Private replica; engine holds a reference.
    std::unique_ptr<core::PhotonicInferenceEngine> engine;
    core::ModelMapping mapping;  ///< Pacing workload (empty when pacing off).
    std::unordered_map<std::size_t, double> service_us_by_rows;  ///< Memo.
  };

  const std::size_t id_;
  const ServingOptions options_;
  /// Heap-pinned so the engine's Network& stays valid for the shard's life.
  std::map<std::string, std::unique_ptr<ShardModel>> models_;

  /// Persistent planned-execution scratch (worker-thread only; reserved to
  /// max_batch at construction so execute() never reallocates them): row
  /// views mapping request tensors straight into the plan, and the
  /// (sequence, latency) pairs staged before the stats lock.
  std::vector<core::RowViewIn> in_views_;
  std::vector<core::RowViewOut> out_views_;
  std::vector<std::pair<std::uint64_t, double>> latency_scratch_;

  mutable std::mutex stats_mutex_;
  ShardStats stats_;
};

}  // namespace xl::serve
