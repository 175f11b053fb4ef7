#include "serve/shard.hpp"

#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "core/execution_plan.hpp"
#include "core/scheduler.hpp"

namespace xl::serve {

namespace {

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

AcceleratorShard::AcceleratorShard(std::size_t id, const ModelRepository& models,
                                   const core::VdpSimOptions& vdp,
                                   const ServingOptions& options)
    : id_(id), options_(options) {
  stats_.batch_rows_histogram.assign(options_.max_batch + 1, 0);
  for (const std::string& name : models.names()) {
    auto shard_model = std::make_unique<ShardModel>();
    shard_model->network = models.replicate(name);
    shard_model->engine = std::make_unique<core::PhotonicInferenceEngine>(
        shard_model->network, vdp);
    // Compile the plan eagerly (weight packing, im2col index maps, arena
    // sizing) so no worker thread ever pays the compilation cost.
    shard_model->engine->prepare_plan(models.find(name).input_shape, options_.max_batch);
    if (options_.pace_hardware_time) {
      shard_model->mapping =
          core::map_model(models.find(name).spec, options_.architecture);
    }
    models_.emplace(name, std::move(shard_model));
  }
  // A micro-batch holds at most max_batch requests (each carries >= 1 row).
  in_views_.reserve(options_.max_batch);
  out_views_.reserve(options_.max_batch);
  latency_scratch_.reserve(options_.max_batch);
}

double AcceleratorShard::paced_service_us(const std::string& model, std::size_t rows) {
  if (!options_.pace_hardware_time || rows == 0) return 0.0;
  ShardModel& entry = *models_.at(model);
  const auto memo = entry.service_us_by_rows.find(rows);
  if (memo != entry.service_us_by_rows.end()) return memo->second;
  core::ScheduleOptions schedule;
  schedule.batch = rows;
  const double makespan_us =
      core::EventScheduler(options_.architecture, schedule).run(entry.mapping).makespan_us();
  const double service = makespan_us * options_.pace_scale;
  entry.service_us_by_rows.emplace(rows, service);
  return service;
}

void AcceleratorShard::execute(MicroBatch&& batch) {
  const Clock::time_point dispatched_at = Clock::now();
  try {
    const auto it = models_.find(batch.model);
    if (it == models_.end()) {
      throw std::logic_error("AcceleratorShard: unregistered model: " + batch.model);
    }
    ShardModel& entry = *it->second;

    // Canonical effect timeline: every micro-batch starts from the boot
    // (t = 0) pipeline state. Combined with the engine's row-independent
    // GEMM and operand-keyed noise, per-sample logits are therefore
    // invariant to batch composition, shard assignment, and worker count.
    entry.engine->engine().reset_effects();

    // The cached ExecutionPlan gathers request rows straight from each
    // request's input tensor and scatters logits straight into its
    // preallocated result tensor — no coalesced copy, no per-request logits
    // allocation, zero engine-side heap traffic after warm-up.
    const core::ExecutionPlan* plan = entry.engine->plan();
    in_views_.clear();
    out_views_.clear();
    for (PendingRequest& pending : batch.requests) {
      const std::size_t k = pending.rows();
      if (pending.result.logits.numel() != k * plan->output_numel()) {
        // submit() normally preallocates; cover direct-injected requests.
        dnn::Shape out_shape = plan->output_sample_shape();
        out_shape[0] = k;
        pending.result.logits = dnn::Tensor(out_shape);
      }
      in_views_.push_back({pending.request.input.data(), k});
      out_views_.push_back({pending.result.logits.data(), k});
    }
    entry.engine->infer_views(in_views_, out_views_);

    // The shard is occupied for at least the simulated hardware makespan of
    // this batch (hardware-time pacing; no-op when disabled).
    const double target_us = paced_service_us(batch.model, batch.rows);
    const double compute_us = elapsed_us(dispatched_at, Clock::now());
    if (target_us > compute_us) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::micro>(target_us - compute_us));
    }

    const Clock::time_point completed_at = Clock::now();
    const double service_us = elapsed_us(dispatched_at, completed_at);

    latency_scratch_.clear();
    for (PendingRequest& pending : batch.requests) {
      pending.result.shard_id = id_;
      pending.result.batch_rows = batch.rows;
      pending.result.coalesced_requests = batch.requests.size();
      pending.result.queue_us = elapsed_us(pending.enqueued_at, dispatched_at);
      pending.result.service_us = service_us;
      latency_scratch_.emplace_back(pending.sequence,
                                    elapsed_us(pending.enqueued_at, completed_at));
      pending.promise.set_value(std::move(pending.result));
    }

    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.batches += 1;
    stats_.samples += batch.rows;
    stats_.requests += batch.requests.size();
    stats_.busy_us += service_us;
    if (batch.rows < stats_.batch_rows_histogram.size()) {
      stats_.batch_rows_histogram[batch.rows] += 1;
    }
    for (auto& latency : latency_scratch_) {
      stats_.latencies.push_back(latency);
    }
    // Re-sum the engine counters (written only by this worker thread) into
    // the lock-guarded snapshot source.
    stats_.inference = core::PhotonicInferenceStats{};
    for (const auto& [name, model] : models_) {
      (void)name;
      stats_.inference.merge(model->engine->stats());
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    for (PendingRequest& pending : batch.requests) {
      try {
        pending.promise.set_exception(error);
      } catch (const std::future_error&) {
        // Promise already satisfied before the failure; nothing to do.
      }
    }
  }
}

ShardStats AcceleratorShard::snapshot() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace xl::serve
