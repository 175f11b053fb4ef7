// Shared types of the xl::serve runtime: requests, results, options, stats.
//
// An InferRequest names a registered model and carries a batch-of-k input
// tensor (k >= 1 samples along dim 0). The runtime answers with a future of
// InferResult: the per-request logits slice plus the queue/service telemetry
// of the micro-batch the request rode in.
//
// Determinism contract (see serving_runtime.hpp for the full statement):
// per-sample logits depend only on (model, sample, VdpSimOptions) — never on
// batch composition, shard assignment, or worker count.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/tensor.hpp"

namespace xl::dnn {
class Network;
struct Dataset;
}  // namespace xl::dnn

namespace xl::serve {

using Clock = std::chrono::steady_clock;

/// One inference job: a registered model name plus a (k, ...) input batch.
struct InferRequest {
  std::string model;
  dnn::Tensor input;  ///< dim 0 = samples (1 <= k <= ServingOptions::max_batch).

  [[nodiscard]] std::size_t rows() const noexcept {
    return input.rank() >= 1 ? input.dim(0) : 0;
  }
};

/// The fulfilled side of a request's future.
struct InferResult {
  dnn::Tensor logits;                 ///< (k, classes) slice for this request.
  std::size_t shard_id = 0;           ///< Worker shard that executed the batch.
  std::size_t batch_rows = 0;         ///< Rows of the coalesced micro-batch.
  std::size_t coalesced_requests = 0; ///< Requests sharing that micro-batch.
  double queue_us = 0.0;              ///< Admission -> dispatch wall time.
  double service_us = 0.0;            ///< Dispatch -> completion wall time.
};

/// Thrown through the future of every request that was accepted by submit()
/// but still queued — never dispatched into a micro-batch — when
/// ServingRuntime::stop() runs. The shutdown contract: in-flight
/// micro-batches complete normally; undispatched requests fail fast with
/// this error instead of being silently dropped with the runtime. Callers
/// that stop() while holding unresolved futures must be prepared to catch
/// it.
class ShutdownError : public std::runtime_error {
 public:
  explicit ShutdownError(const std::string& what) : std::runtime_error(what) {}
};

/// Upper bound on queue deadlines (1000 s): far beyond any sane batching
/// window, and small enough that the micro-batcher's wait arithmetic can
/// never overflow the steady_clock duration representation.
inline constexpr double kMaxDeadlineUs = 1e9;

/// Runtime configuration. `architecture` only matters when hardware-time
/// pacing is on: each micro-batch then occupies its shard for at least the
/// EventScheduler batch makespan scaled by pace_scale, so offered-load
/// sweeps measure the *simulated accelerator's* capacity, not the host CPU.
struct ServingOptions {
  std::size_t workers = 1;        ///< Accelerator shards (one thread each).
  std::size_t max_batch = 16;     ///< Max samples coalesced per micro-batch.
  double deadline_us = 2000.0;    ///< Max queue wait before forced dispatch.
  std::size_t queue_capacity = 4096;  ///< Admission backpressure bound.
  bool pace_hardware_time = false;    ///< Sleep to the simulated makespan.
  double pace_scale = 1.0;            ///< Wall-us slept per simulated us.
  core::ArchitectureConfig architecture{};  ///< Drives pacing makespans.

  /// Rejects zero workers/max_batch/queue capacity, negative deadline, and
  /// non-positive pace_scale. Throws std::invalid_argument.
  void validate() const;
};

/// Aggregated runtime telemetry. Per-shard counters are merged under the
/// runtime's stats mutex at batch completion, so a snapshot is always
/// race-free (the TSan CI job runs the serving tests).
struct ServingStats {
  std::size_t requests = 0;  ///< Requests completed.
  std::size_t samples = 0;   ///< Samples (tensor rows) completed.
  std::size_t batches = 0;   ///< Micro-batches executed.
  /// histogram[r] = micro-batches that carried exactly r rows (index 0 unused).
  std::vector<std::size_t> batch_rows_histogram;
  /// Work counters summed over every shard engine (all models).
  core::PhotonicInferenceStats inference;
  /// Per-request admission -> completion latency, in admission order.
  std::vector<double> latency_us;
  double busy_us = 0.0;  ///< Summed shard service time (all shards).

  [[nodiscard]] double mean_batch_rows() const noexcept {
    return batches > 0 ? static_cast<double>(samples) / static_cast<double>(batches)
                       : 0.0;
  }
};

/// p-th percentile (p in [0, 100]) by linear interpolation; 0 when empty.
[[nodiscard]] double latency_percentile_us(std::vector<double> latencies, double p);

/// The standard serving-report pair, computed from one sort of the history
/// (every stats consumer needs both; sorting twice per report would double
/// the cost on long-running latency histories).
[[nodiscard]] std::pair<double, double> latency_p50_p99_us(
    std::vector<double> latencies);

/// Copy every learnable parameter of `src` into the identically structured
/// `dst` (the shard-replication primitive: one immutable prototype network,
/// one private replica per shard). Throws std::invalid_argument on
/// parameter count or shape mismatch.
void copy_parameters(dnn::Network& src, dnn::Network& dst);

/// The canonical mixed-size replay trace used by the serving tests, bench,
/// example, and CLI: request i carries min(1 + i % 4, max_rows) samples,
/// cycled over `data` (the cursor wraps to 0 when a slice would run past
/// the end). One shared definition keeps every determinism/monotonicity
/// claim pinned to the same trace shape. When `slices` is non-null it
/// receives each request's (dataset start, rows) — e.g. for scoring served
/// logits against labels. Throws std::invalid_argument when the dataset is
/// empty or max_rows is 0.
[[nodiscard]] std::vector<dnn::Tensor> make_mixed_size_trace(
    const dnn::Dataset& data, std::size_t requests, std::size_t max_rows,
    std::vector<std::pair<std::size_t, std::size_t>>* slices = nullptr);

}  // namespace xl::serve
