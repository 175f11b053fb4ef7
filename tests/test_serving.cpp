// xl::serve runtime tests: the replay determinism contract (bit-identical
// logits under any worker count, equal to the direct engine), micro-batcher
// coalescing/deadline policy, queue semantics, stats aggregation, shard
// fault injection, and the thread-safe Session paths that back the serving
// worker pool.
//
// The TSan CI job runs this binary with -fsanitize=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/effects.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/activations.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/models.hpp"
#include "dnn/reshape.hpp"
#include "numerics/rng.hpp"
#include "serve/serving_runtime.hpp"
#include "serve/shard.hpp"

namespace xl::serve {
namespace {

// Untrained (random, seeded) proxy MLP: weights are deterministic and
// training time is zero — logits identity is all these tests need.
dnn::Network make_proxy(unsigned seed = 21) {
  numerics::Rng rng(seed);
  return dnn::build_table1_proxy_mlp(rng);
}

dnn::Network make_tiny(unsigned seed = 5) {
  numerics::Rng rng(seed);
  dnn::Network net;
  net.emplace<dnn::Flatten>();
  net.emplace<dnn::Dense>(16, 4, rng);
  return net;
}

core::VdpSimOptions serving_vdp() {
  core::VdpSimOptions vdp;
  // Thermal (time-stepped) + keyed PD noise + crosstalk: the full keyed-
  // noise discipline the determinism contract must hold under.
  vdp.effects = core::EffectConfig::parse("thermal,noise");
  return vdp;
}

dnn::Dataset proxy_dataset(std::size_t count) {
  return dnn::generate_classification(dnn::table1_proxy_task(), count, /*salt=*/3);
}

/// The fixed mixed-size trace of the replay tests: request i carries
/// 1 + i % 4 samples (the canonical shared trace shape).
std::vector<dnn::Tensor> make_trace(const dnn::Dataset& data, std::size_t requests) {
  return make_mixed_size_trace(data, requests, /*max_rows=*/4);
}

std::unique_ptr<ServingRuntime> make_runtime(dnn::Network& prototype,
                                             ServingOptions options) {
  auto runtime = std::make_unique<ServingRuntime>(serving_vdp(), options);
  runtime->register_model("proxy", prototype, [] { return make_proxy(); },
                          {1, 1, 12, 12});
  return runtime;
}

std::vector<dnn::Tensor> replay(ServingRuntime& runtime,
                                const std::vector<dnn::Tensor>& trace) {
  std::vector<std::future<InferResult>> futures;
  futures.reserve(trace.size());
  for (const dnn::Tensor& input : trace) {
    futures.push_back(runtime.submit("proxy", input));
  }
  std::vector<dnn::Tensor> logits;
  logits.reserve(trace.size());
  for (auto& future : futures) logits.push_back(future.get().logits);
  return logits;
}

void expect_bit_identical(const std::vector<dnn::Tensor>& a,
                          const std::vector<dnn::Tensor>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].shape(), b[i].shape()) << what << " request " << i;
    for (std::size_t j = 0; j < a[i].numel(); ++j) {
      ASSERT_EQ(a[i][j], b[i][j]) << what << " request " << i << " element " << j;
    }
  }
}

// --- the PR 5 acceptance test ----------------------------------------------

TEST(ServingReplay, BitIdenticalAcrossWorkerCountsAndVsDirectEngine) {
  dnn::Network prototype = make_proxy();
  const dnn::Dataset data = proxy_dataset(64);
  const std::vector<dnn::Tensor> trace = make_trace(data, 64);

  // Serial reference: each request alone through the direct engine, effect
  // pipeline reset to boot state per request (the canonical timeline).
  dnn::Network reference_net = make_proxy();
  core::PhotonicInferenceEngine direct(reference_net, serving_vdp());
  std::vector<dnn::Tensor> reference;
  reference.reserve(trace.size());
  for (const dnn::Tensor& input : trace) {
    direct.engine().reset_effects();
    reference.push_back(direct.infer_batch(input));
  }

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ServingOptions options;
    options.workers = workers;
    options.max_batch = 12;
    options.deadline_us = 200.0;
    auto runtime = make_runtime(prototype, options);
    runtime->start();
    const std::vector<dnn::Tensor> logits = replay(*runtime, trace);
    runtime->stop();
    expect_bit_identical(reference, logits,
                         workers == 1   ? "1 worker"
                         : workers == 2 ? "2 workers"
                                        : "8 workers");
  }
}

TEST(ServingReplay, CoalescingPreservesPerSampleLogits) {
  dnn::Network prototype = make_proxy();
  const dnn::Dataset data = proxy_dataset(32);
  const std::vector<dnn::Tensor> trace = make_trace(data, 24);

  ServingOptions options;
  options.workers = 1;
  options.max_batch = 16;
  options.deadline_us = 50000.0;  // Generous: maximize coalescing.
  auto runtime = make_runtime(prototype, options);
  runtime->start();
  const std::vector<dnn::Tensor> coalesced = replay(*runtime, trace);
  runtime->stop();
  const ServingStats stats = runtime->stats();
  // The batcher actually coalesced (fewer batches than requests)...
  EXPECT_LT(stats.batches, stats.requests);

  // ...while per-sample logits equal the uncoalesced (max_batch=rows) path.
  ServingOptions lone;
  lone.workers = 1;
  lone.max_batch = 4;  // Trace rows are 1..4: most batches carry 1 request.
  lone.deadline_us = 0.0;
  auto lone_runtime = make_runtime(prototype, lone);
  lone_runtime->start();
  const std::vector<dnn::Tensor> alone = replay(*lone_runtime, trace);
  lone_runtime->stop();
  expect_bit_identical(coalesced, alone, "coalesced vs lone");
}

// --- micro-batcher / queue policy ------------------------------------------

TEST(MicroBatcher, CoalescesFifoSameModelUpToMaxBatch) {
  RequestQueue queue(64);
  for (int i = 0; i < 5; ++i) {
    PendingRequest pending;
    pending.request.model = "m";
    pending.request.input = dnn::Tensor({3, 4});
    ASSERT_TRUE(queue.push(std::move(pending)));
  }
  MicroBatcher batcher(8, /*deadline_us=*/0.0);
  const auto first = batcher.next_batch(queue);
  ASSERT_TRUE(first.has_value());
  // 3 + 3 = 6 rows; a third request (3 rows) would exceed max_batch 8.
  EXPECT_EQ(first->rows, 6u);
  EXPECT_EQ(first->requests.size(), 2u);
  const auto second = batcher.next_batch(queue);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->rows, 6u);
  const auto third = batcher.next_batch(queue);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->rows, 3u);
  EXPECT_EQ(third->requests.size(), 1u);
}

TEST(MicroBatcher, NeverMixesModelsAndPreservesFifoAcrossThem) {
  RequestQueue queue(64);
  const char* order[] = {"a", "a", "b", "a"};
  for (const char* model : order) {
    PendingRequest pending;
    pending.request.model = model;
    pending.request.input = dnn::Tensor({1, 4});
    ASSERT_TRUE(queue.push(std::move(pending)));
  }
  MicroBatcher batcher(16, 0.0);
  const auto first = batcher.next_batch(queue);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->model, "a");
  EXPECT_EQ(first->requests.size(), 2u);  // Stops at the "b" front.
  const auto second = batcher.next_batch(queue);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->model, "b");
  const auto third = batcher.next_batch(queue);
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->model, "a");
}

TEST(MicroBatcher, DeadlineWaitPicksUpLateArrivals) {
  RequestQueue queue(64);
  PendingRequest pending;
  pending.request.model = "m";
  pending.request.input = dnn::Tensor({1, 4});
  ASSERT_TRUE(queue.push(std::move(pending)));

  MicroBatcher batcher(8, /*deadline_us=*/200000.0);  // 200 ms of patience.
  std::thread producer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    PendingRequest late;
    late.request.model = "m";
    late.request.input = dnn::Tensor({2, 4});
    ASSERT_TRUE(queue.push(std::move(late)));
    queue.close();  // Lets the batcher return instead of waiting out 200 ms.
  });
  const auto batch = batcher.next_batch(queue);
  producer.join();
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->rows, 3u);
  EXPECT_EQ(batch->requests.size(), 2u);
}

TEST(MicroBatcher, ZeroDeadlineDispatchesLoneRequestImmediately) {
  RequestQueue queue(64);
  PendingRequest pending;
  pending.request.model = "m";
  pending.request.input = dnn::Tensor({2, 4});
  ASSERT_TRUE(queue.push(std::move(pending)));
  MicroBatcher batcher(16, 0.0);
  const auto batch = batcher.next_batch(queue);
  ASSERT_TRUE(batch.has_value());
  EXPECT_EQ(batch->rows, 2u);
  EXPECT_EQ(batch->requests.size(), 1u);
}

TEST(RequestQueue, CloseDrainsBacklogThenSignalsTermination) {
  RequestQueue queue(4);
  PendingRequest pending;
  pending.request.model = "m";
  pending.request.input = dnn::Tensor({1, 4});
  ASSERT_TRUE(queue.push(std::move(pending)));
  queue.close();
  PendingRequest rejected;
  rejected.request.model = "m";
  rejected.request.input = dnn::Tensor({1, 4});
  EXPECT_FALSE(queue.push(std::move(rejected)));
  EXPECT_TRUE(queue.pop().has_value());   // Backlog drains...
  EXPECT_FALSE(queue.pop().has_value());  // ...then nullopt, no blocking.
}

// Regression test for the close() notify_all audit (see request_queue.hpp):
// shutdown is the one transition that must wake EVERY parked thread on both
// condition variables — a notify_one here would strand all but one waiter.
TEST(RequestQueue, ShutdownWakesAllBlockedProducersAndConsumers) {
  constexpr std::size_t kWaiters = 3;

  // Producers: fill a capacity-1 queue, then park three pushers on the
  // not-full cv. close() must wake all three; each push returns false.
  {
    RequestQueue queue(1);
    PendingRequest filler;
    filler.request.model = "m";
    filler.request.input = dnn::Tensor({1, 4});
    ASSERT_TRUE(queue.push(std::move(filler)));
    std::atomic<std::size_t> rejected{0};
    std::vector<std::thread> producers;
    for (std::size_t i = 0; i < kWaiters; ++i) {
      producers.emplace_back([&queue, &rejected] {
        PendingRequest pending;
        pending.request.model = "m";
        pending.request.input = dnn::Tensor({1, 4});
        if (!queue.push(std::move(pending))) {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    // Give the producers time to park (cosmetic: close() is correct even if
    // a producer arrives after it — push on a closed queue fails fast).
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    for (auto& t : producers) t.join();
    EXPECT_EQ(rejected.load(), kWaiters);
  }

  // Consumers: three poppers parked on the not-empty cv of an empty queue.
  // close() must wake all three; each pop returns nullopt.
  {
    RequestQueue queue(4);
    std::atomic<std::size_t> drained{0};
    std::vector<std::thread> consumers;
    for (std::size_t i = 0; i < kWaiters; ++i) {
      consumers.emplace_back([&queue, &drained] {
        if (!queue.pop().has_value()) {
          drained.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    queue.close();
    for (auto& t : consumers) t.join();
    EXPECT_EQ(drained.load(), kWaiters);
  }
}

// --- mixed-model traffic ----------------------------------------------------

TEST(ServingRuntime, MixedModelTrafficRoutesAndNeverMixesBatches) {
  dnn::Network proxy = make_proxy();
  dnn::Network tiny = make_tiny();
  ServingOptions options;
  options.workers = 2;
  options.max_batch = 8;
  options.deadline_us = 100.0;
  ServingRuntime runtime(serving_vdp(), options);
  runtime.register_model("proxy", proxy, [] { return make_proxy(); }, {1, 1, 12, 12});
  runtime.register_model("tiny", tiny, [] { return make_tiny(); }, {1, 1, 4, 4});
  runtime.start();

  const dnn::Dataset proxy_data = proxy_dataset(16);
  dnn::SyntheticSpec tiny_spec;
  tiny_spec.classes = 4;
  tiny_spec.height = 4;
  tiny_spec.width = 4;
  const dnn::Dataset tiny_data = dnn::generate_classification(tiny_spec, 16, 9);

  std::vector<std::future<InferResult>> proxy_futures;
  std::vector<std::future<InferResult>> tiny_futures;
  for (std::size_t i = 0; i < 8; ++i) {
    proxy_futures.push_back(
        runtime.submit("proxy", dnn::batch_images(proxy_data, i, 2)));
    tiny_futures.push_back(runtime.submit("tiny", dnn::batch_images(tiny_data, i, 1)));
  }
  for (auto& f : proxy_futures) {
    const InferResult r = f.get();
    EXPECT_EQ(r.logits.dim(0), 2u);
    EXPECT_EQ(r.logits.dim(1), 24u);  // Proxy classes.
  }
  for (auto& f : tiny_futures) {
    const InferResult r = f.get();
    EXPECT_EQ(r.logits.dim(0), 1u);
    EXPECT_EQ(r.logits.dim(1), 4u);  // Tiny classes — never a proxy batch.
  }
  runtime.stop();
  const ServingStats stats = runtime.stats();
  EXPECT_EQ(stats.requests, 16u);
  EXPECT_EQ(stats.samples, 24u);
}

// --- stats aggregation ------------------------------------------------------

TEST(ServingRuntime, StatsAggregateAcrossShardsWithoutLoss) {
  dnn::Network prototype = make_proxy();
  const dnn::Dataset data = proxy_dataset(32);
  const std::vector<dnn::Tensor> trace = make_trace(data, 20);
  std::size_t total_rows = 0;
  for (const dnn::Tensor& t : trace) total_rows += t.dim(0);

  ServingOptions options;
  options.workers = 4;
  options.max_batch = 8;
  options.deadline_us = 100.0;
  auto runtime = make_runtime(prototype, options);
  runtime->start();
  (void)replay(*runtime, trace);
  runtime->stop();

  const ServingStats stats = runtime->stats();
  EXPECT_EQ(stats.requests, trace.size());
  EXPECT_EQ(stats.samples, total_rows);
  EXPECT_EQ(stats.latency_us.size(), trace.size());
  std::size_t histogram_batches = 0;
  std::size_t histogram_rows = 0;
  for (std::size_t rows = 0; rows < stats.batch_rows_histogram.size(); ++rows) {
    histogram_batches += stats.batch_rows_histogram[rows];
    histogram_rows += rows * stats.batch_rows_histogram[rows];
  }
  EXPECT_EQ(histogram_batches, stats.batches);
  EXPECT_EQ(histogram_rows, stats.samples);
  // Engine counters survived the per-shard merge.
  EXPECT_EQ(stats.inference.samples_inferred, total_rows);
  EXPECT_EQ(stats.inference.batches_inferred, stats.batches);
  EXPECT_GT(stats.inference.photonic_matmuls, 0u);
  for (const double latency : stats.latency_us) EXPECT_GT(latency, 0.0);
}

TEST(PhotonicInferenceStats, MergeSumsCountersAndMaxesError) {
  core::PhotonicInferenceStats a;
  a.photonic_macs = 10;
  a.samples_inferred = 2;
  a.max_abs_layer_error = 0.5;
  core::PhotonicInferenceStats b;
  b.photonic_macs = 5;
  b.samples_inferred = 1;
  b.max_abs_layer_error = 0.75;
  a.merge(b);
  EXPECT_EQ(a.photonic_macs, 15u);
  EXPECT_EQ(a.samples_inferred, 3u);
  EXPECT_DOUBLE_EQ(a.max_abs_layer_error, 0.75);
}

// --- validation and lifecycle ----------------------------------------------

TEST(ServingRuntime, ValidatesOptionsAndSubmissions) {
  EXPECT_THROW(
      { ServingOptions o; o.workers = 0; o.validate(); }, std::invalid_argument);
  EXPECT_THROW(
      { ServingOptions o; o.max_batch = 0; o.validate(); }, std::invalid_argument);
  EXPECT_THROW(
      { ServingOptions o; o.deadline_us = -1.0; o.validate(); },
      std::invalid_argument);
  EXPECT_THROW(
      {
        ServingOptions o;
        o.pace_hardware_time = true;
        o.pace_scale = 0.0;
        o.validate();
      },
      std::invalid_argument);

  dnn::Network prototype = make_proxy();
  ServingOptions options;
  options.max_batch = 4;
  auto runtime = make_runtime(prototype, options);
  // Submit before start, register after start, bad shapes, unknown models.
  EXPECT_THROW((void)runtime->submit("proxy", dnn::Tensor({1, 1, 12, 12})),
               std::runtime_error);
  runtime->start();
  EXPECT_THROW(runtime->register_model("late", prototype, [] { return make_proxy(); },
                                       {1, 1, 12, 12}),
               std::logic_error);
  EXPECT_THROW((void)runtime->submit("nope", dnn::Tensor({1, 1, 12, 12})),
               std::invalid_argument);
  EXPECT_THROW((void)runtime->submit("proxy", dnn::Tensor({1, 1, 10, 10})),
               std::invalid_argument);
  EXPECT_THROW((void)runtime->submit("proxy", dnn::Tensor({5, 1, 12, 12})),
               std::invalid_argument);  // rows > max_batch.
  runtime->stop();
  EXPECT_THROW((void)runtime->submit("proxy", dnn::Tensor({1, 1, 12, 12})),
               std::runtime_error);
}

// Shutdown contract: requests still queued when stop() runs must have their
// futures completed with ShutdownError — never silently dropped — while the
// claimed in-flight micro-batch completes normally.
TEST(ServingRuntimeTest, StopFailsQueuedRequestsWithShutdownError) {
  dnn::Network prototype = make_proxy();
  ServingOptions options;
  options.workers = 1;
  options.max_batch = 1;  // No coalescing: one request per micro-batch.
  options.deadline_us = 0.0;
  // Hardware-time pacing occupies the lone worker for ~0.2 s per request,
  // so everything submitted behind the in-flight one is still queued when
  // stop() runs.
  options.pace_hardware_time = true;
  options.pace_scale = 2e7;
  auto runtime = make_runtime(prototype, options);
  runtime->start();

  const dnn::Dataset data = proxy_dataset(8);
  std::vector<std::future<InferResult>> futures;
  futures.push_back(runtime->submit("proxy", dnn::batch_images(data, 0, 1)));
  // Give the worker time to claim the first request into its micro-batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::size_t i = 1; i < 8; ++i) {
    futures.push_back(runtime->submit("proxy", dnn::batch_images(data, i, 1)));
  }
  runtime->stop();

  std::size_t completed = 0;
  std::size_t shutdown = 0;
  for (auto& future : futures) {
    try {
      const InferResult result = future.get();  // Must never hang or break.
      EXPECT_EQ(result.logits.dim(0), 1u);
      ++completed;
    } catch (const ShutdownError& e) {
      EXPECT_NE(std::string(e.what()).find("stop()"), std::string::npos);
      ++shutdown;
    }
  }
  // Every future resolved exactly one way: executed, or failed-at-shutdown.
  EXPECT_EQ(completed + shutdown, futures.size());
  EXPECT_GE(completed, 1u) << "the claimed in-flight request must complete";
  EXPECT_GE(shutdown, 1u) << "the undispatched backlog must fail loudly";
}

// Shutdown with a producer blocked at capacity: the lone worker is busy
// (paced) with a lone deadline-0 request, a second request fills the
// one-slot queue, and a third submit() parks inside the queue's blocking
// push. stop() must wake that producer (its submit() throws), must return,
// and must leave every future already handed out resolved: the in-flight
// request with its logits, the queued one with ShutdownError.
TEST(ServingRuntimeTest, StopReleasesProducerBlockedAtCapacity) {
  dnn::Network prototype = make_proxy();
  ServingOptions options;
  options.workers = 1;
  options.max_batch = 1;
  options.deadline_us = 0.0;
  options.queue_capacity = 1;
  // Hardware-time pacing keeps the worker busy with the first request for
  // about a second, well past the two 50 ms settling sleeps below.
  options.pace_hardware_time = true;
  options.pace_scale = 2e7;
  auto runtime = make_runtime(prototype, options);
  runtime->start();

  const dnn::Dataset data = proxy_dataset(4);
  std::vector<std::future<InferResult>> futures;
  futures.push_back(runtime->submit("proxy", dnn::batch_images(data, 0, 1)));
  // Give the worker time to claim the first request into its micro-batch.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  futures.push_back(runtime->submit("proxy", dnn::batch_images(data, 1, 1)));

  std::atomic<bool> producer_threw{false};
  std::atomic<bool> producer_admitted{false};
  std::thread producer([&] {
    try {
      (void)runtime->submit("proxy", dnn::batch_images(data, 2, 1));
      producer_admitted = true;
    } catch (const std::runtime_error&) {
      producer_threw = true;
    }
  });
  // Give the producer time to park in the full queue's push().
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  runtime->stop();
  producer.join();
  EXPECT_TRUE(producer_threw) << "the producer blocked at capacity must fail";
  EXPECT_FALSE(producer_admitted);

  std::size_t completed = 0;
  std::size_t shutdown = 0;
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "stop() returned with an unresolved future";
    try {
      const InferResult result = future.get();
      EXPECT_EQ(result.logits.dim(0), 1u);
      ++completed;
    } catch (const ShutdownError&) {
      ++shutdown;
    }
  }
  EXPECT_EQ(completed, 1u) << "the claimed in-flight request must complete";
  EXPECT_EQ(shutdown, 1u) << "the queued request must fail with ShutdownError";
  EXPECT_EQ(runtime->stats().requests, 1u);
}

TEST(ModelRepository, ReplicatesWeightsExactly) {
  dnn::Network prototype = make_proxy(/*seed=*/77);
  ModelRepository repo;
  ServedModel model;
  model.name = "proxy";
  model.prototype = &prototype;
  model.factory = [] { return make_proxy(/*seed=*/1); };  // Different init...
  model.input_shape = {1, 1, 12, 12};
  repo.add(std::move(model));
  dnn::Network replica = repo.replicate("proxy");
  const auto src = prototype.parameters();
  const auto dst = replica.parameters();  // ...overwritten by the prototype.
  ASSERT_EQ(src.size(), dst.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    ASSERT_EQ(src[i].value->numel(), dst[i].value->numel());
    for (std::size_t j = 0; j < src[i].value->numel(); ++j) {
      EXPECT_EQ((*src[i].value)[j], (*dst[i].value)[j]);
    }
  }
  EXPECT_THROW((void)repo.replicate("unknown"), std::invalid_argument);
}

// --- shard fault injection ---------------------------------------------------

MicroBatch make_micro_batch(const std::string& model,
                            const std::vector<dnn::Tensor>& inputs) {
  MicroBatch batch;
  batch.model = model;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    PendingRequest pending;
    pending.request.model = model;
    pending.request.input = inputs[i];
    pending.enqueued_at = Clock::now();
    pending.sequence = i;
    batch.rows += pending.rows();
    batch.requests.push_back(std::move(pending));
  }
  return batch;
}

TEST(AcceleratorShardFault, FailedBatchFailsEveryPromiseThenShardKeepsServing) {
  dnn::Network prototype = make_proxy();
  ModelRepository repo;
  ServedModel model;
  model.name = "proxy";
  model.prototype = &prototype;
  model.factory = [] { return make_proxy(); };
  model.input_shape = {1, 1, 12, 12};
  repo.add(std::move(model));
  ServingOptions options;
  options.max_batch = 8;
  AcceleratorShard shard(/*id=*/0, repo, serving_vdp(), options);

  const dnn::Dataset data = proxy_dataset(16);
  const std::vector<dnn::Tensor> inputs = make_trace(data, 3);  // 1+2+3 rows.

  // A micro-batch for a model this shard never registered: execute()
  // throws inside its body, and the catch-all must fail every promise with
  // that error without counting the batch.
  MicroBatch bad = make_micro_batch("unregistered", inputs);
  std::vector<std::future<InferResult>> failed;
  for (PendingRequest& pending : bad.requests) {
    failed.push_back(pending.promise.get_future());
  }
  shard.execute(std::move(bad));
  for (auto& future : failed) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_THROW((void)future.get(), std::logic_error);
    EXPECT_FALSE(future.valid());  // Resolved exactly once, now consumed.
  }
  const ShardStats after_fault = shard.snapshot();
  EXPECT_EQ(after_fault.batches, 0u);
  EXPECT_EQ(after_fault.requests, 0u);
  EXPECT_EQ(after_fault.samples, 0u);
  EXPECT_TRUE(after_fault.latencies.empty());

  // The same shard then serves a valid batch bit-identically to the direct
  // engine on the canonical (boot-state) effect timeline.
  MicroBatch good = make_micro_batch("proxy", inputs);
  std::vector<std::future<InferResult>> served;
  for (PendingRequest& pending : good.requests) {
    served.push_back(pending.promise.get_future());
  }
  shard.execute(std::move(good));
  std::vector<dnn::Tensor> logits;
  for (auto& future : served) logits.push_back(future.get().logits);

  dnn::Network reference_net = make_proxy();
  core::PhotonicInferenceEngine direct(reference_net, serving_vdp());
  std::vector<dnn::Tensor> reference;
  for (const dnn::Tensor& input : inputs) {
    direct.engine().reset_effects();
    reference.push_back(direct.infer_batch(input));
  }
  expect_bit_identical(reference, logits, "shard after a failed batch");
  const ShardStats after_good = shard.snapshot();
  EXPECT_EQ(after_good.batches, 1u);
  EXPECT_EQ(after_good.requests, inputs.size());
  EXPECT_EQ(after_good.samples, 6u);
}

// --- a forward that throws mid-micro-batch ----------------------------------

constexpr float kTripwire = 1234.5F;

/// Electronic pass-through layer whose eval_into throws when any row's first
/// input is the sentinel: a failure inside a planned micro-batch, with the
/// photonic steps still ahead of it.
class TripwireLayer : public dnn::Layer {
 public:
  void eval_into(const dnn::Shape& input_shape, std::span<const float> input,
                 std::span<float> output) override {
    const std::size_t row_elems = input.size() / input_shape[0];
    for (std::size_t r = 0; r < input_shape[0]; ++r) {
      if (input[r * row_elems] == kTripwire) throw std::runtime_error("tripwire");
    }
    std::copy(input.begin(), input.end(), output.begin());
  }
  dnn::Tensor backward(const dnn::Tensor& grad_output) override { return grad_output; }
  [[nodiscard]] std::string kind() const override { return "tripwire"; }
  [[nodiscard]] dnn::Shape output_shape(const dnn::Shape& input_shape) const override {
    return input_shape;
  }
};

dnn::Network make_tripwire(unsigned seed = 9) {
  numerics::Rng rng(seed);
  dnn::Network net;
  net.emplace<dnn::Flatten>();
  net.emplace<TripwireLayer>();
  net.emplace<dnn::Dense>(16, 8, rng);
  net.emplace<dnn::Dense>(8, 4, rng);
  return net;
}

TEST(ServingRuntimeFault, ForwardThrowingMidBatchResolvesEveryFutureOnce) {
  dnn::Network prototype = make_tripwire();
  ServingOptions options;
  options.workers = 1;
  options.max_batch = 8;
  options.deadline_us = 20000.0;  // Long enough for the burst to coalesce.
  ServingRuntime runtime(serving_vdp(), options);
  runtime.register_model("trip", prototype, [] { return make_tripwire(/*seed=*/1); },
                         {1, 1, 4, 4});
  runtime.start();

  numerics::Rng rng(31);
  auto make_input = [&](std::size_t rows) {
    dnn::Tensor t({rows, 1, 4, 4});
    for (std::size_t j = 0; j < t.numel(); ++j) t[j] = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
  };
  // Healthy requests around one whose last row carries the sentinel.
  constexpr std::size_t kSentinel = 3;
  std::vector<dnn::Tensor> inputs;
  for (std::size_t i = 0; i < 7; ++i) inputs.push_back(make_input(1 + i % 2));
  inputs[kSentinel][inputs[kSentinel].numel() - 16] = kTripwire;
  std::vector<std::future<InferResult>> futures;
  for (const dnn::Tensor& input : inputs) futures.push_back(runtime.submit("trip", input));

  dnn::Network reference_net = make_tripwire();
  core::PhotonicInferenceEngine direct(reference_net, serving_vdp());
  auto reference = [&](const dnn::Tensor& input) {
    direct.engine().reset_effects();
    return direct.infer_batch(input);
  };
  std::size_t failed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "request " << i << " never resolved";
    try {
      const InferResult result = futures[i].get();
      EXPECT_NE(i, kSentinel) << "the sentinel request must fail";
      expect_bit_identical({reference(inputs[i])}, {result.logits}, "healthy request");
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "tripwire") << "request " << i;
      ++failed;
    }
    EXPECT_FALSE(futures[i].valid());  // Resolved exactly once, now consumed.
  }
  EXPECT_GE(failed, 1u);

  // The runtime keeps serving, bit-identically to the direct engine.
  const dnn::Tensor next = make_input(3);
  const InferResult after = runtime.submit("trip", next).get();
  expect_bit_identical({reference(next)}, {after.logits}, "request after the fault");
  runtime.stop();
  EXPECT_EQ(runtime.stats().requests, futures.size() - failed + 1);
}

// --- the thread-safe Session paths backing the worker pool ------------------

TEST(SessionThreadSafety, ConcurrentBackendAndEvaluateCalls) {
  api::Session session;
  const dnn::ModelSpec model = dnn::lenet5_spec();
  const api::EvalResult reference = session.evaluate("crosslight:opt_ted", model);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&session, &model, &reference, &failures] {
      for (int i = 0; i < 8; ++i) {
        const api::EvalResult r = session.evaluate("crosslight:opt_ted", model);
        if (r.report.perf.fps != reference.report.perf.fps) failures.fetch_add(1);
        (void)session.backend("deap_cnn");
        (void)session.backend("functional");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(SessionServe, FacadeMatchesDirectEngineOnSessionConfig) {
  api::SimConfig config;
  config.vdp.effects = core::EffectConfig::parse("thermal,noise");
  api::Session session(config);

  dnn::Network prototype = make_proxy();
  auto runtime = session.serve(ServingOptions{});
  EXPECT_EQ(runtime->vdp_options().effects.summary(),
            config.vdp.effects.summary());
  runtime->register_model("proxy", prototype, [] { return make_proxy(); },
                          {1, 1, 12, 12});
  runtime->start();

  const dnn::Dataset data = proxy_dataset(8);
  const dnn::Tensor input = dnn::batch_images(data, 0, 4);
  const dnn::Tensor served = runtime->submit("proxy", input).get().logits;
  runtime->stop();

  dnn::Network direct_net = make_proxy();
  core::PhotonicInferenceEngine direct(direct_net, config.vdp);
  const dnn::Tensor expected = direct.infer_batch(input);
  ASSERT_EQ(served.numel(), expected.numel());
  for (std::size_t j = 0; j < served.numel(); ++j) {
    EXPECT_EQ(served[j], expected[j]) << "element " << j;
  }
}

}  // namespace
}  // namespace xl::serve
