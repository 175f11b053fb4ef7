// ServingRuntime — concurrent micro-batching inference over sharded
// photonic engines.
//
// Architecture (one PR 5 tentpole diagram):
//
//   submit() threads ──> RequestQueue (bounded FIFO, backpressure)
//                              │
//                        MicroBatcher (deadline-aware coalescing,
//                              │        FIFO across models)
//              ┌───────────────┼───────────────┐
//         worker 0        worker 1   ...   worker W-1
//              │               │               │
//       AcceleratorShard  AcceleratorShard  AcceleratorShard
//       (own replica networks + PhotonicInferenceEngines,
//        own thermal state, own stats; nothing shared)
//
// Each worker is one dedicated std::thread per shard, parked in the queue's
// blocking pop between batches.
//
// Determinism contract
// --------------------
// For a fixed request trace, per-sample logits are bit-identical under ANY
// worker count and ANY micro-batch grouping, and identical to running each
// request alone through PhotonicInferenceEngine::infer_batch with the
// effect pipeline reset to boot state. This holds because:
//   * every shard engine is constructed from the same immutable
//     VdpSimOptions (same LUTs, same keyed-noise seed discipline as PR 3);
//   * each micro-batch executes against the canonical boot-state effect
//     timeline (reset_effects before every batch; the thermal stage then
//     advances per *layer*, identically for every batch size);
//   * the batched GEMM normalizes and simulates each activation row
//     independently, and PD noise is keyed on the operands, not on any
//     cross-sample or cross-thread state.
// Batch grouping and shard assignment therefore only affect *latency*,
// never values — the replay test in tests/test_serving.cpp pins this.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/vdp_simulator.hpp"
#include "serve/micro_batcher.hpp"
#include "serve/model_repository.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_types.hpp"
#include "serve/shard.hpp"

namespace xl::serve {

class ServingRuntime {
 public:
  /// Validates both configs up front (throws std::invalid_argument). The
  /// vdp options are shared immutably by every shard engine.
  ServingRuntime(core::VdpSimOptions vdp, ServingOptions options = {});

  /// Not copyable/movable: worker threads capture `this`.
  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  /// Calls stop(): in-flight micro-batches complete, still-queued requests
  /// fail with ShutdownError.
  ~ServingRuntime();

  /// Register a model before start(). The prototype network must outlive
  /// the runtime and must not be mutated while serving.
  void register_model(ServedModel model);

  /// Convenience: register with a per-sample input shape, synthesizing the
  /// pacing ModelSpec from the prototype.
  void register_model(const std::string& name, dnn::Network& prototype,
                      std::function<dnn::Network()> factory, dnn::Shape input_shape);

  /// Instantiate every (shard, model) engine and launch the worker pool.
  /// Throws std::logic_error when already started or no model is registered.
  void start();

  /// Enqueue one request; blocks only when the queue is at capacity.
  /// Validates the model name and input shape (throws std::invalid_argument;
  /// rows must be in [1, max_batch]) and throws std::runtime_error when the
  /// runtime is not started or already stopping. An input holding a NaN or
  /// an infinity is never queued: the returned future fails with
  /// std::invalid_argument naming the first offending row, and no other
  /// request is affected.
  [[nodiscard]] std::future<InferResult> submit(const std::string& model,
                                                dnn::Tensor input);

  /// Stop accepting requests and join the workers. Requests already claimed
  /// into a micro-batch complete normally; requests still queued (never
  /// dispatched) have their futures failed with ShutdownError — nothing is
  /// silently dropped. Idempotent; called by the destructor.
  void stop();

  [[nodiscard]] bool started() const noexcept { return started_; }
  [[nodiscard]] const ServingOptions& options() const noexcept { return options_; }
  [[nodiscard]] const core::VdpSimOptions& vdp_options() const noexcept { return vdp_; }
  [[nodiscard]] const ModelRepository& models() const noexcept { return models_; }

  /// Race-free aggregate of every shard's counters (callable while
  /// serving): batch histogram, merged PhotonicInferenceStats, and
  /// per-request latencies sorted by admission order.
  [[nodiscard]] ServingStats stats() const;

 private:
  void worker_loop(AcceleratorShard& shard);

  core::VdpSimOptions vdp_;
  ServingOptions options_;
  ModelRepository models_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  std::vector<std::unique_ptr<AcceleratorShard>> shards_;
  std::vector<std::thread> workers_;
  /// Guards start/stop transitions and the shards_ vector shape (stats()
  /// takes it too, so a snapshot never races a concurrent start()).
  mutable std::mutex lifecycle_mutex_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace xl::serve
