// Bounded thread-safe FIFO of pending inference requests.
//
// The queue is the admission edge of the serving runtime: submit() threads
// push (blocking while the queue is at capacity — backpressure instead of
// unbounded memory growth), the micro-batcher pops. Pops preserve global
// FIFO order: the batcher may only skip *ahead* within the same model via
// try_pop_same(), never reorder across models, so a replay trace drains in
// a deterministic request order.
//
// Condition-variable discipline (audited): every state transition that
// creates exactly one unit of progress — one enqueued request, one freed
// capacity slot — uses notify_one; a single woken waiter either consumes
// the unit or (a coalescing batcher hitting a model mismatch) dispatches
// and immediately re-polls, so no wakeup is ever absorbed without progress.
// Only close()/close_and_drain() use notify_all: closing changes the
// predicate of EVERY blocked producer and consumer at once, and all of them
// must wake to observe it (regression-tested in tests/test_serving.cpp,
// ShutdownWakesAllBlockedProducersAndConsumers).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/serve_types.hpp"

namespace xl::serve {

/// A request queued with its promise and admission telemetry.
struct PendingRequest {
  InferRequest request;
  std::promise<InferResult> promise;
  /// Pre-built result: submit() allocates the (rows, classes) logits tensor
  /// on the caller's thread, so the worker hot path only writes into it
  /// (planned execution scatters logits straight here) and moves it out.
  InferResult result;
  Clock::time_point enqueued_at{};
  std::uint64_t sequence = 0;  ///< Admission order ticket.

  [[nodiscard]] std::size_t rows() const noexcept { return request.rows(); }
};

class RequestQueue {
 public:
  explicit RequestQueue(std::size_t capacity);

  /// Result of a model-filtered pop attempt.
  enum class PopSame : std::uint8_t {
    kPopped,    ///< Front matched; request returned.
    kMismatch,  ///< Front is a different model (FIFO forbids skipping it).
    kTooLarge,  ///< Front matches but exceeds the remaining row budget.
    kEmpty,     ///< Queue is empty.
    kClosed,    ///< Queue is closed and empty.
  };

  /// Blocking push; waits while the queue is at capacity. Returns false
  /// (without enqueueing) when the queue has been closed.
  bool push(PendingRequest&& pending);

  /// Pop the front request, blocking until one is available or the queue is
  /// closed and drained (then nullopt).
  [[nodiscard]] std::optional<PendingRequest> pop();

  /// Pop the front request only if it is for `model` and carries at most
  /// `max_rows` rows; never blocks.
  PopSame try_pop_same(const std::string& model, std::size_t max_rows,
                       std::optional<PendingRequest>& out);

  /// Block until the queue is non-empty, closed, or `deadline` passes.
  /// Returns true when a request may be available.
  bool wait_for_request(Clock::time_point deadline);

  /// Close the queue: push() starts failing, poppers drain the backlog and
  /// then observe kClosed / nullopt.
  void close();

  /// Atomically close the queue AND claim the entire undispatched backlog.
  /// After this returns, every request the queue ever accepted is either
  /// (a) already popped by a batcher (it will complete normally) or
  /// (b) in the returned vector (the runtime fails its promise with
  /// ShutdownError) — exactly one of the two, so no request is ever
  /// silently dropped or double-resolved at shutdown.
  [[nodiscard]] std::vector<PendingRequest> close_and_drain();

  [[nodiscard]] bool closed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<PendingRequest> queue_;
  std::uint64_t next_sequence_ = 0;
  bool closed_ = false;
};

}  // namespace xl::serve
