#include "serve/serving_runtime.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

namespace xl::serve {

ServingRuntime::ServingRuntime(core::VdpSimOptions vdp, ServingOptions options)
    // Validation must precede the queue/batcher member initializers, or
    // their internal checks would fire first with less precise messages.
    : vdp_(std::move(vdp)),
      options_((options.validate(), options)),
      queue_(options.queue_capacity),
      batcher_(options.max_batch, options.deadline_us) {
  vdp_.validate();
}

ServingRuntime::~ServingRuntime() { stop(); }

void ServingRuntime::register_model(ServedModel model) {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) {
    throw std::logic_error("ServingRuntime: register_model must precede start()");
  }
  models_.add(std::move(model));
}

void ServingRuntime::register_model(const std::string& name, dnn::Network& prototype,
                                    std::function<dnn::Network()> factory,
                                    dnn::Shape input_shape) {
  ServedModel model;
  model.name = name;
  model.prototype = &prototype;
  model.factory = std::move(factory);
  model.input_shape = std::move(input_shape);
  register_model(std::move(model));
}

void ServingRuntime::start() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (started_) throw std::logic_error("ServingRuntime: already started");
  if (models_.size() == 0) {
    throw std::logic_error("ServingRuntime: no models registered");
  }
  // Shards are built serially before any worker exists: every replica is
  // copied from the (immutable) prototypes with no concurrent readers.
  shards_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    shards_.push_back(std::make_unique<AcceleratorShard>(i, models_, vdp_, options_));
  }
  workers_.reserve(options_.workers);
  try {
    for (std::size_t i = 0; i < options_.workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(*shards_[i]); });
    }
  } catch (...) {
    // A thread failed to spawn (resource exhaustion): release the workers
    // that did start — destroying a joinable std::thread would terminate.
    queue_.close();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
    shards_.clear();
    throw;
  }
  started_ = true;
}

std::future<InferResult> ServingRuntime::submit(const std::string& model,
                                                dnn::Tensor input) {
  if (!started_ || stopping_) {
    throw std::runtime_error("ServingRuntime: submit() outside start()..stop()");
  }
  const ServedModel& entry = models_.find(model);  // Throws on unknown model.
  if (input.rank() != entry.input_shape.size()) {
    throw std::invalid_argument("ServingRuntime: input rank mismatch for " + model);
  }
  for (std::size_t d = 1; d < entry.input_shape.size(); ++d) {
    if (input.dim(d) != entry.input_shape[d]) {
      throw std::invalid_argument("ServingRuntime: input shape mismatch for " + model);
    }
  }
  const std::size_t rows = input.dim(0);
  if (rows == 0 || rows > options_.max_batch) {
    throw std::invalid_argument(
        "ServingRuntime: request rows must be in [1, max_batch]");
  }

  PendingRequest pending;
  const std::size_t bad =
      core::first_non_finite_row(input.data(), rows, input.numel() / rows);
  if (bad < rows) {
    // Only this request fails: it never enters the queue, so no micro-batch
    // (and no other request's logits) ever sees the value.
    pending.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
        "ServingRuntime: non-finite input in row " + std::to_string(bad) + " for " +
        model)));
    return pending.promise.get_future();
  }
  pending.request.model = model;
  pending.request.input = std::move(input);
  // Preallocate the result logits on the submitter's thread: the worker hot
  // path (planned execution) scatters straight into this tensor and moves
  // the result out, so steady-state workers never touch the heap for it.
  dnn::Shape out_shape = entry.output_shape;
  out_shape[0] = rows;
  pending.result.logits = dnn::Tensor(out_shape);
  std::future<InferResult> future = pending.promise.get_future();
  if (!queue_.push(std::move(pending))) {
    throw std::runtime_error("ServingRuntime: queue closed during submit()");
  }
  return future;
}

void ServingRuntime::stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (!started_ || stopping_) return;  // Never started, or already stopped.
  stopping_ = true;
  // Close admission and claim the undispatched backlog in one atomic step:
  // every accepted request is now either inside a micro-batch (a worker
  // finishes it normally below) or in `orphans` — exactly one of the two.
  std::vector<PendingRequest> orphans = queue_.close_and_drain();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Fail the orphans only after the workers are gone, so a completed future
  // always means "executed" and a ShutdownError always means "never ran".
  for (PendingRequest& pending : orphans) {
    pending.promise.set_exception(std::make_exception_ptr(ShutdownError(
        "ServingRuntime: stop() before request for '" + pending.request.model +
        "' was dispatched")));
  }
}

void ServingRuntime::worker_loop(AcceleratorShard& shard) {
  while (auto batch = batcher_.next_batch(queue_)) {
    shard.execute(std::move(*batch));
  }
}

ServingStats ServingRuntime::stats() const {
  // shards_ changes shape only inside start(); the lock makes a snapshot
  // taken concurrently with start() well-defined.
  std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  ServingStats out;
  out.batch_rows_histogram.assign(options_.max_batch + 1, 0);
  std::vector<std::pair<std::uint64_t, double>> latencies;
  for (const auto& shard : shards_) {
    const ShardStats s = shard->snapshot();
    out.requests += s.requests;
    out.samples += s.samples;
    out.batches += s.batches;
    out.busy_us += s.busy_us;
    for (std::size_t r = 0;
         r < s.batch_rows_histogram.size() && r < out.batch_rows_histogram.size(); ++r) {
      out.batch_rows_histogram[r] += s.batch_rows_histogram[r];
    }
    out.inference.merge(s.inference);
    latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
  }
  std::sort(latencies.begin(), latencies.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out.latency_us.reserve(latencies.size());
  for (const auto& [sequence, latency] : latencies) {
    (void)sequence;
    out.latency_us.push_back(latency);
  }
  return out;
}

}  // namespace xl::serve
