#include "serve/micro_batcher.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace xl::serve {

MicroBatcher::MicroBatcher(std::size_t max_batch, double deadline_us)
    // The clamp keeps the wait-cutoff duration_cast below the clock's
    // integer range (casting a double past it is undefined behavior).
    : max_batch_(max_batch), deadline_us_(std::min(deadline_us, kMaxDeadlineUs)) {
  if (max_batch == 0) {
    throw std::invalid_argument("MicroBatcher: max_batch must be >= 1");
  }
  if (deadline_us < 0.0) {
    throw std::invalid_argument("MicroBatcher: deadline_us must be >= 0");
  }
}

std::optional<MicroBatch> MicroBatcher::next_batch(RequestQueue& queue) {
  // Serialize formation: without this, two workers pulling concurrently
  // would interleave pops and split what FIFO order says is one batch.
  std::lock_guard<std::mutex> formation(formation_mutex_);
  std::optional<PendingRequest> first = queue.pop();
  if (!first) return std::nullopt;  // Closed and drained.

  MicroBatch batch;
  batch.model = first->request.model;
  batch.rows = first->rows();
  const Clock::time_point cutoff =
      first->enqueued_at +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(deadline_us_));
  batch.requests.push_back(std::move(*first));

  while (batch.rows < max_batch_) {
    std::optional<PendingRequest> next;
    const RequestQueue::PopSame status =
        queue.try_pop_same(batch.model, max_batch_ - batch.rows, next);
    if (status == RequestQueue::PopSame::kPopped) {
      batch.rows += next->rows();
      batch.requests.push_back(std::move(*next));
      continue;
    }
    // A different-model front (or one too large for the remaining budget)
    // must be served by the *next* batch — FIFO order is preserved.
    if (status == RequestQueue::PopSame::kMismatch ||
        status == RequestQueue::PopSame::kTooLarge ||
        status == RequestQueue::PopSame::kClosed) {
      break;
    }
    // Queue momentarily empty: wait for company until the oldest claimed
    // request's deadline, then dispatch what we have.
    if (Clock::now() >= cutoff) break;
    if (!queue.wait_for_request(cutoff)) break;  // Deadline expired.
  }
  return batch;
}

}  // namespace xl::serve
