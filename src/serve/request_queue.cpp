#include "serve/request_queue.hpp"

#include <stdexcept>
#include <utility>

namespace xl::serve {

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("RequestQueue: capacity must be >= 1");
  }
}

bool RequestQueue::push(PendingRequest&& pending) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
  if (closed_) return false;
  pending.sequence = next_sequence_++;
  pending.enqueued_at = Clock::now();
  queue_.push_back(std::move(pending));
  lock.unlock();
  // One enqueued request is one unit of consumer progress: notify_one. A
  // woken coalescing batcher that cannot take it (model mismatch) dispatches
  // its batch and re-polls the queue immediately, so the unit is never
  // stranded behind a swallowed wakeup.
  not_empty_.notify_one();
  return true;
}

std::optional<PendingRequest> RequestQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return std::nullopt;  // Closed and drained.
  PendingRequest out = std::move(queue_.front());
  queue_.pop_front();
  lock.unlock();
  // One freed slot admits exactly one blocked producer: notify_one. (Each
  // subsequent pop frees another slot and issues its own wake, so multiple
  // blocked producers drain one-for-one without a broadcast.)
  not_full_.notify_one();
  return out;
}

RequestQueue::PopSame RequestQueue::try_pop_same(const std::string& model,
                                                std::size_t max_rows,
                                                std::optional<PendingRequest>& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (queue_.empty()) return closed_ ? PopSame::kClosed : PopSame::kEmpty;
  PendingRequest& front = queue_.front();
  if (front.request.model != model) return PopSame::kMismatch;
  if (front.rows() > max_rows) return PopSame::kTooLarge;
  out = std::move(front);
  queue_.pop_front();
  lock.unlock();
  not_full_.notify_one();
  return PopSame::kPopped;
}

bool RequestQueue::wait_for_request(Clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  return not_empty_.wait_until(lock, deadline,
                               [&] { return !queue_.empty() || closed_; });
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  // Closing flips the wait predicate of every blocked producer AND consumer
  // simultaneously — this is the one transition that must broadcast.
  not_empty_.notify_all();
  not_full_.notify_all();
}

std::vector<PendingRequest> RequestQueue::close_and_drain() {
  std::vector<PendingRequest> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    drained.reserve(queue_.size());
    while (!queue_.empty()) {
      drained.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  return drained;
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

}  // namespace xl::serve
