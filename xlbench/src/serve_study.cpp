// serve-open: an open loop of seeded Poisson arrivals at two fixed rates
// into a default-options ServingRuntime (2 shards, max_batch 8) serving the
// Table I proxy MLP with every effect stage on. Requests carry the
// canonical mixed sizes (1-4 rows).
//
// Each request is timed from its due time, not from its submit, so a stall
// in the generator or the runtime shows up in every request it delays. The
// completion instant comes from the runtime's own InferResult telemetry
// (admission -> dispatch -> completion), anchored at submit() return, so no
// collector thread has to observe futures in order. stats() is only read
// between windows, never inside one.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/execution_plan.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/datasets.hpp"
#include "dnn/models.hpp"
#include "exec/exec.hpp"
#include "numerics/rng.hpp"
#include "serve/serving_runtime.hpp"
#include "stats.hpp"
#include "studies.hpp"

namespace xlb {
namespace {

using xl::dnn::Tensor;

// The rates keep each p50 off the edge between the two modes the 2 ms
// batching deadline makes. At lo most requests open a micro-batch that waits
// out the deadline, so the median lies inside that mode (deadline +
// service); at hi most micro-batches fill before the deadline, so the median
// lies in the continuous part. Where about half of the requests wait out the
// deadline, the median jumps between the modes from run to run.
constexpr double kLoRate = 200.0;   ///< req/s; about 1/15 of 2-shard capacity.
constexpr double kHiRate = 1500.0;  ///< req/s; about 1/2 of capacity.
/// Requests per measured window at least.
constexpr std::size_t kMinWindowRequests = 100;
/// Requests per traced window at least, so its p99 has at least ten
/// samples beyond it.
constexpr std::size_t kMinTracedWindowRequests = 1000;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kDatasetSamples = 128;
constexpr std::size_t kTraceRequests = 512;

xl::core::VdpSimOptions vdp_all() {
  xl::core::VdpSimOptions vdp;
  vdp.effects = xl::core::EffectConfig::parse("all");
  return vdp;
}

xl::dnn::Network make_proxy() {
  xl::numerics::Rng rng(21);
  return xl::dnn::build_table1_proxy_mlp(rng);
}

/// One open-loop window's per-request records.
struct Window {
  std::vector<double> latency_us;  ///< Due -> completion, in due order.
  std::vector<double> submit_us;
  std::vector<double> queue_us;
  std::vector<double> service_us;
  std::vector<double> late_us;     ///< How late the generator submitted.
  std::size_t attempted = 0;
  std::size_t completed = 0;  ///< Futures that returned a result.
  std::size_t failed = 0;
  double span_us = 0.0;  ///< First due time -> last completion.
};

/// Every window measured at one rate, pooled. The reported p50 is taken
/// over the pool: a stall from elsewhere on the machine delays a small share
/// of its samples, which moves a median little.
struct RateLog {
  std::size_t windows = 0;
  Window pooled;
};

class ServeStudy final : public Study {
 public:
  explicit ServeStudy(std::uint64_t seed) : seed_(seed), prototype_(make_proxy()) {
    xl::dnn::SyntheticSpec spec = xl::dnn::table1_proxy_task();
    spec.seed = seed * 6151 + 3;
    data_ = xl::dnn::generate_classification(spec, kDatasetSamples);
    trace_ = xl::serve::make_mixed_size_trace(data_, kTraceRequests, kMaxBatch, &slices_);
    xl::serve::ServingOptions options;
    options.workers = kWorkers;
    options.max_batch = kMaxBatch;
    runtime_ = std::make_unique<xl::serve::ServingRuntime>(vdp_all(), options);
    runtime_->register_model(xl::serve::table1_proxy_served_model(prototype_));
    runtime_->start();
  }

  ~ServeStudy() override { runtime_->stop(); }

  /// Each slice runs one window per rate, lo then hi, on half the slice each.
  void measure(double budget_s, Checks& checks) override {
    Tracer off(false);
    for (const bool lo : {true, false}) {
      const Window w = run_window(lo ? kLoRate : kHiRate, budget_s / 2, kMinWindowRequests,
                                  3 + windows_run_++, off, checks);
      RateLog& log = lo ? lo_ : hi_;
      ++log.windows;
      Window& acc = log.pooled;
      acc.latency_us.insert(acc.latency_us.end(), w.latency_us.begin(), w.latency_us.end());
      acc.service_us.insert(acc.service_us.end(), w.service_us.begin(), w.service_us.end());
      acc.late_us.insert(acc.late_us.end(), w.late_us.begin(), w.late_us.end());
      acc.attempted += w.attempted;
      acc.failed += w.failed;
    }
  }

  /// Each request's service time (its micro-batch's compute on a shard) is
  /// scaled to the reference host speed. The rest of its latency, generator
  /// lateness and queueing with the fixed 2 ms batching deadline, is kept as
  /// measured: scaling whole latencies would stretch the deadline too.
  void report(Metrics& metrics, Checks& checks, const HostSpeed& host) override {
    if (!checks.expect(!lo_.pooled.latency_us.empty() && !hi_.pooled.latency_us.empty(),
                       "serve: a rate completed no request")) {
      return;
    }
    report_rate("lo", kLoRate, lo_, host, metrics);
    report_rate("hi", kHiRate, hi_, host, metrics);
  }

  void trace(double budget_s, bool primary, Tracer& tracer, Metrics& metrics,
             Checks& checks) override {
    const xl::serve::ServingStats before = runtime_->stats();
    const Window lo =
        run_window(kLoRate, 0.4 * budget_s, kMinTracedWindowRequests, 1, tracer, checks);
    const xl::serve::ServingStats mid = runtime_->stats();
    const Window hi =
        run_window(kHiRate, 0.4 * budget_s, kMinTracedWindowRequests, 2, tracer, checks);
    const xl::serve::ServingStats after = runtime_->stats();

    // The tails are reported here, not gated end to end: on a shared host a
    // window's p99 follows stalls from other tenants (over ten runs its
    // spread reached 0.8-2.0 of its median).
    metrics.set("serve.lo.p99_ms", percentile(lo.latency_us, 99.0) / 1e3, "ms");
    metrics.set("serve.hi.p99_ms", percentile(hi.latency_us, 99.0) / 1e3, "ms");

    const auto pooled = [&](const std::vector<double>& a, const std::vector<double>& b) {
      std::vector<double> all = a;
      all.insert(all.end(), b.begin(), b.end());
      return all;
    };
    const auto p50_p99 = [&](const char* name, std::vector<double> values) {
      metrics.set(std::string(name) + ".p50", percentile(values, 50.0), "us");
      metrics.set(std::string(name) + ".p99", percentile(std::move(values), 99.0), "us");
    };
    p50_p99("serve.submit_us", pooled(lo.submit_us, hi.submit_us));
    p50_p99("serve.queue_us", pooled(lo.queue_us, hi.queue_us));
    p50_p99("serve.service_us", pooled(lo.service_us, hi.service_us));

    const double batches = static_cast<double>(after.batches - mid.batches);
    metrics.set("serve.batch_rows_mean",
                batches > 0.0 ? static_cast<double>(after.samples - mid.samples) / batches
                              : 0.0,
                "rows");
    metrics.set("serve.batches", batches, "count");
    metrics.set("serve.busy_frac",
                (after.busy_us - mid.busy_us) / (static_cast<double>(kWorkers) * hi.span_us),
                "frac");
    metrics.set("serve.gen_late_us.p99", percentile(pooled(lo.late_us, hi.late_us), 99.0),
                "us");
    metrics.set("serve.failed_frac",
                static_cast<double>(lo.failed + hi.failed) /
                    static_cast<double>(lo.attempted + hi.attempted),
                "frac");
    checks.expect(after.requests - before.requests == lo.completed + hi.completed,
                  "serve: runtime completed-request count disagrees with the client");

    trace_plan(0.2 * budget_s, tracer, metrics, checks);

    if (primary) {
      // Replay the hi window's exact arrival schedule untraced; the ratio of
      // median due-time latencies is the tracing overhead.
      Tracer off(false);
      const Window plain =
          run_window(kHiRate, 0.4 * budget_s, kMinTracedWindowRequests, 2, off, checks);
      metrics.set("trace.overhead_frac",
                  median(hi.latency_us) / median(plain.latency_us) - 1.0, "frac");
    }
  }

 private:
  /// Open-loop window of max(min_requests, rate * seconds) requests with
  /// exponential gaps drawn from (seed, stream).
  Window run_window(double rate, double seconds, std::size_t min_requests,
                    std::uint64_t stream, Tracer& tracer, Checks& checks) {
    const auto count = std::max<std::size_t>(
        min_requests, static_cast<std::size_t>(std::llround(rate * seconds)));
    xl::numerics::Rng rng(seed_ * 1000003 + stream);
    std::vector<Clock::time_point> due(count);
    const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(2);
    double offset_us = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      offset_us += -std::log1p(-rng.uniform()) * 1e6 / rate;
      due[i] = t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(offset_us * 1e3));
    }

    std::vector<std::future<xl::serve::InferResult>> futures(count);
    std::vector<Clock::time_point> began(count);  ///< submit() entered.
    std::vector<Clock::time_point> submitted(count);  ///< submit() returned.
    Window w;
    w.late_us.reserve(count);
    w.submit_us.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      std::this_thread::sleep_until(due[i]);
      began[i] = Clock::now();
      try {
        futures[i] = runtime_->submit("table1-proxy-mlp", trace_[i % trace_.size()]);
      } catch (const std::exception& e) {
        checks.fail(std::string("serve: submit refused: ") + e.what());
      }
      submitted[i] = Clock::now();
      w.late_us.push_back(us_between(due[i], began[i]));
      w.submit_us.push_back(us_between(began[i], submitted[i]));
    }

    w.attempted = count;
    checks.attempt(count);
    Clock::time_point last_done = t0;
    for (std::size_t i = 0; i < count; ++i) {
      if (!futures[i].valid()) {
        ++w.failed;
        continue;
      }
      try {
        xl::serve::InferResult r = futures[i].get();
        ++w.completed;
        const double latency = us_between(due[i], submitted[i]) + r.queue_us + r.service_us;
        const auto done = due[i] + std::chrono::nanoseconds(
                                       static_cast<std::int64_t>(latency * 1e3));
        last_done = std::max(last_done, done);
        w.latency_us.push_back(latency);
        w.queue_us.push_back(r.queue_us);
        w.service_us.push_back(r.service_us);
        if (tracer.enabled()) {
          // Queue and service spans are placed from the runtime's own
          // durations, starting at submit() return.
          const auto q1 = submitted[i] + std::chrono::nanoseconds(
                                             static_cast<std::int64_t>(r.queue_us * 1e3));
          tracer.record("serve.submit", "serve", began[i], submitted[i], i + 1);
          tracer.record("serve.queue", "serve", submitted[i], q1, i + 1);
          tracer.record("serve.service", "serve", q1, done, i + 1);
        }
        if (!checks.expect(matches_solo(i % trace_.size(), r.logits),
                           "serve: served logits differ from a solo infer_batch")) {
          ++w.failed;
        }
      } catch (const std::exception& e) {
        ++w.failed;
        checks.fail(std::string("serve: request failed: ") + e.what());
      }
    }
    w.span_us = us_between(t0, last_done);
    if (backlog_growing(w.latency_us)) {
      std::printf("serve: WARNING backlog grows at %.0f req/s\n", rate);
    }
    return w;
  }

  /// Bit-compare served logits against a solo infer_batch of the same
  /// request on a private replica, from the boot effect state (the serving
  /// determinism contract). Identical requests are computed once.
  bool matches_solo(std::size_t trace_index, const Tensor& served) {
    auto it = solo_.find(slices_[trace_index]);
    if (it == solo_.end()) {
      if (reference_ == nullptr) {
        // Constructed in place: a moved Network's layers would point at the
        // moved-from network's quantization spec.
        reference_net_.reset(new xl::dnn::Network(make_proxy()));
        xl::serve::copy_parameters(prototype_, *reference_net_);
        reference_ = std::make_unique<xl::core::PhotonicInferenceEngine>(*reference_net_,
                                                                         vdp_all());
      }
      reference_->engine().reset_effects();
      it = solo_.emplace(slices_[trace_index], reference_->infer_batch(trace_[trace_index]))
               .first;
    }
    const Tensor& solo = it->second;
    return solo.shape() == served.shape() &&
           std::memcmp(solo.data(), served.data(), solo.numel() * sizeof(float)) == 0;
  }

  void report_rate(const char* tag, double rate, const RateLog& log, const HostSpeed& host,
                   Metrics& metrics) const {
    const Window& w = log.pooled;
    std::vector<double> scaled(w.latency_us.size());
    for (std::size_t i = 0; i < scaled.size(); ++i) {
      scaled[i] = w.latency_us[i] - w.service_us[i] + host.time(w.service_us[i]);
    }
    const double p50_ms = percentile(scaled, 50.0) / 1e3;
    const TailPercentile tail = tail_percentile(w.latency_us);
    std::printf(
        "serve %s: %.0f req/s offered, %zu windows, %zu requests, %zu failed; pooled p50 "
        "%.3f ms (%.3f ms with service scaled, host slowdown %.3f), p%.1f %.3f ms (%zu "
        "beyond); generator p99 late %.1f us\n",
        tag, rate, log.windows, w.attempted, w.failed, percentile(w.latency_us, 50.0) / 1e3,
        p50_ms, host.slowdown(), tail.p, tail.value / 1e3, tail.beyond,
        percentile(w.late_us, 99.0));
    metrics.set(std::string("serve.") + tag + ".p50_ms", p50_ms, "ms");
  }

  /// The planned engine alone, on a private replica: plan compile, one
  /// micro-batch of 1, 4 and 8 rows, and the executor's fork-join cost at a
  /// serve GEMM's tile count.
  void trace_plan(double budget_s, Tracer& tracer, Metrics& metrics, Checks& checks) {
    const double each_s = budget_s / 5.0;
    checks.attempt();
    try {
      xl::dnn::Network net = make_proxy();
      xl::serve::copy_parameters(prototype_, net);
      xl::core::PhotonicInferenceEngine engine(net, vdp_all());
      const xl::dnn::Shape sample = {1, 1, 12, 12};
      const std::vector<double> compile_us =
          time_reps(tracer, "core.plan.compile", "core", each_s, 5, 2000,
                    [&] { (void)engine.prepare_plan(sample, kMaxBatch); });
      metrics.set("core.plan.compile_us", median(compile_us), "us");

      const std::size_t classes = engine.plan()->output_numel();
      std::vector<float> out(kMaxBatch * classes);
      for (const std::size_t rows : {1, 4, 8}) {
        const xl::core::RowViewIn in{data_.images.data(), rows};
        const xl::core::RowViewOut ov{out.data(), rows};
        std::vector<double> us;
        const auto start = Clock::now();
        while (us.size() < 5 || (us.size() < 5000 &&
                                 us_between(start, Clock::now()) < each_s * 1e6)) {
          engine.engine().reset_effects();  // As the shard does per micro-batch.
          const auto t0 = Clock::now();
          engine.infer_views({&in, 1}, {&ov, 1});
          const auto t1 = Clock::now();
          tracer.record(rows == 1 ? "core.plan.r1" : rows == 4 ? "core.plan.r4" : "core.plan.r8",
                        "core", t0, t1);
          us.push_back(us_between(t0, t1));
        }
        metrics.set("core.plan.r" + std::to_string(rows) + "_us", median(us), "us");
      }

      // Tile count of the proxy MLP's first layer at max_batch: the engine
      // tiles (batch / 32) x (outputs / 32) pairs, i.e. 1 x 2 tiles.
      constexpr std::size_t kTiles = 2;
      constexpr int kCallsPerRep = 100;
      const std::vector<double> pf_us = time_reps(tracer, "exec.parallel_for.x100", "exec",
                                                  each_s, 5, 5000, [&] {
        for (int c = 0; c < kCallsPerRep; ++c) {
          xl::exec::parallel_for(0, kTiles, 1, [](std::size_t, std::size_t, std::size_t) {});
        }
      });
      metrics.set("exec.parallel_for_us", median(pf_us) / kCallsPerRep, "us");
    } catch (const std::exception& e) {
      checks.fail(std::string("plan probe: ") + e.what());
    }
  }

  std::uint64_t seed_;
  xl::dnn::Network prototype_;
  xl::dnn::Dataset data_;
  std::vector<Tensor> trace_;
  std::vector<std::pair<std::size_t, std::size_t>> slices_;
  std::unique_ptr<xl::serve::ServingRuntime> runtime_;
  RateLog lo_;
  RateLog hi_;
  std::size_t windows_run_ = 0;

  std::unique_ptr<xl::dnn::Network> reference_net_;
  std::unique_ptr<xl::core::PhotonicInferenceEngine> reference_;
  std::map<std::pair<std::size_t, std::size_t>, Tensor> solo_;
};

}  // namespace

std::unique_ptr<Study> make_serve_study(std::uint64_t seed) {
  return std::make_unique<ServeStudy>(seed);
}

}  // namespace xlb
