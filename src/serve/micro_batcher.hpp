// Deadline-aware dynamic micro-batching over the request queue.
//
// next_batch() assembles one micro-batch sized for the batched photonic
// engine: it claims the oldest pending request, then greedily coalesces
// further FIFO-consecutive requests for the *same model* until
//   * the batch holds max_batch sample rows, or
//   * the front of the queue is a different model (FIFO order is never
//     broken across models), or
//   * the oldest claimed request has waited deadline_us since admission
//     (tail-latency bound: a lone request is dispatched alone rather than
//     waiting indefinitely for company).
//
// Batch formation is serialized across workers (one formation at a time), so
// batches are exactly the FIFO grouping of the trace whenever the queue is
// pre-filled — the replay-determinism scenario. Under live traffic the
// grouping depends on arrival timing, but per-sample results do not (see the
// determinism contract in serving_runtime.hpp).
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/request_queue.hpp"

namespace xl::serve {

/// One coalesced unit of work for a shard.
struct MicroBatch {
  std::string model;
  std::vector<PendingRequest> requests;  ///< FIFO order, same model.
  std::size_t rows = 0;                  ///< Total sample rows.
};

class MicroBatcher {
 public:
  MicroBatcher(std::size_t max_batch, double deadline_us);

  /// Form the next micro-batch, blocking until at least one request is
  /// available. Returns nullopt when the queue is closed and drained (the
  /// worker-loop termination signal).
  [[nodiscard]] std::optional<MicroBatch> next_batch(RequestQueue& queue);

  [[nodiscard]] std::size_t max_batch() const noexcept { return max_batch_; }
  [[nodiscard]] double deadline_us() const noexcept { return deadline_us_; }

 private:
  const std::size_t max_batch_;
  const double deadline_us_;
  std::mutex formation_mutex_;  ///< One batch forms at a time.
};

}  // namespace xl::serve
