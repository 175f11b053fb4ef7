#include "scenario/runner.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <random>
#include <thread>
#include <utility>

#include "api/json_writer.hpp"
#include "api/session.hpp"
#include "dnn/datasets.hpp"
#include "dnn/loss.hpp"
#include "dnn/models.hpp"
#include "serve/model_repository.hpp"
#include "serve/serving_runtime.hpp"

namespace xl::scenario {

namespace {

/// Build the request tensors of an arrival spec: each request slices
/// `rows[i]` consecutive samples from the dataset, cursor wrapping to 0
/// when a slice would run past the end (the make_mixed_size_trace
/// convention, generalized to arbitrary row lists for trace replay).
std::vector<dnn::Tensor> build_trace(
    const dnn::Dataset& data, const std::vector<std::size_t>& rows,
    std::vector<std::pair<std::size_t, std::size_t>>& slices) {
  std::vector<dnn::Tensor> trace;
  trace.reserve(rows.size());
  slices.clear();
  slices.reserve(rows.size());
  std::size_t cursor = 0;
  for (const std::size_t r : rows) {
    if (r > data.size()) {
      throw std::invalid_argument("scenario: trace slice larger than the dataset");
    }
    if (cursor + r > data.size()) cursor = 0;
    trace.push_back(dnn::batch_images(data, cursor, r));
    slices.emplace_back(cursor, r);
    cursor += r;
  }
  return trace;
}

/// Open-loop pacing gaps in microseconds, one per request. Burst and trace
/// replay submit back to back (all zero); Poisson draws exponential
/// inter-arrival gaps at rate_per_s. Gaps shape queueing dynamics only —
/// never the logits — so they live outside the determinism contract.
std::vector<double> arrival_gaps_us(const ArrivalSpec& arrivals,
                                    std::size_t requests) {
  std::vector<double> gaps(requests, 0.0);
  if (arrivals.process == ArrivalSpec::Process::kPoisson) {
    std::mt19937_64 rng(arrivals.seed);
    std::exponential_distribution<double> gap(arrivals.rate_per_s / 1e6);
    for (double& g : gaps) g = gap(rng);
  }
  return gaps;
}

void write_config_echo(api::JsonWriter& writer, const ScenarioSpec& spec) {
  const core::ArchitectureConfig& a = spec.config.architecture;
  writer.begin_object("config");
  writer.field("N", a.conv_unit_size);
  writer.field("K", a.fc_unit_size);
  writer.field("n", a.conv_units);
  writer.field("m", a.fc_units);
  writer.field("mrs_per_bank", a.mrs_per_bank);
  writer.field("resolution_bits", a.resolution_bits);
  writer.field("variant", core::variant_name(a.variant));
  writer.end_object();
}

std::string hex64(std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

ScenarioOutcome run_evaluate(const ScenarioSpec& spec, api::Session& session,
                             api::JsonWriter& writer) {
  ScenarioOutcome outcome;
  const std::vector<dnn::ModelSpec> zoo = spec.model_zoo();
  writer.begin_array("results");
  for (const std::string& backend : spec.backends) {
    if (session.backend(backend).capabilities().needs_network) {
      throw std::invalid_argument(
          "scenario '" + spec.name + "': backend '" + backend +
          "' executes real tensors — use mode = functional for it");
    }
    for (const dnn::ModelSpec& model : zoo) {
      api::EvalResult result = session.evaluate(backend, model);
      writer.begin_object();
      writer.field("backend", backend);
      writer.field("model", model.name);
      if (result.has_report) {
        writer.field("fps", result.report.perf.fps);
        writer.field("frame_latency_us", result.report.perf.frame_latency_us);
        writer.field("power_w", result.report.power.total_w());
        writer.field("area_mm2", result.report.area_mm2);
      } else {
        writer.field("platform", result.summary.accelerator);
      }
      writer.field("epb_pj_per_bit", result.epb_pj());
      writer.field("kfps_per_watt", result.kfps_per_watt());
      writer.end_object();
      outcome.evals.push_back({backend, model.name, std::move(result)});
    }
  }
  writer.end_array();
  writer.begin_object("timing");
  writer.end_object();
  return outcome;
}

ScenarioOutcome run_functional(const ScenarioSpec& spec, api::Session& session,
                               api::JsonWriter& writer) {
  ScenarioOutcome outcome;
  dnn::Table1ProxyMlp proxy = dnn::train_table1_proxy_mlp(spec.train_epochs);
  outcome.float_accuracy = proxy.float_accuracy;
  const std::vector<dnn::ModelSpec> zoo = spec.model_zoo();
  const dnn::ModelSpec& reference = zoo.front();

  writer.field("functional_model", "table1-proxy-mlp");
  writer.field("float_test_accuracy", proxy.float_accuracy);
  writer.begin_array("functional");
  for (const std::string& backend : spec.backends) {
    api::EvalResult result =
        session.evaluate_functional(backend, reference, proxy.net, proxy.test);
    const api::FunctionalMetrics& fn = result.functional;
    writer.begin_object();
    writer.field("backend", backend);
    writer.field("accuracy", fn.accuracy);
    writer.field("samples", fn.samples);
    writer.field("photonic_matmuls", fn.stats.photonic_matmuls);
    writer.field("photonic_dot_products", fn.stats.photonic_dot_products);
    writer.field("photonic_macs", fn.stats.photonic_macs);
    if (result.has_report) {
      writer.field("analytical_model", reference.name);
      writer.field("fps", result.report.perf.fps);
      writer.field("power_w", result.report.power.total_w());
      writer.field("epb_pj_per_bit", result.epb_pj());
    }
    writer.end_object();
    outcome.functional.push_back({backend, reference.name, std::move(result)});
  }
  writer.end_array();
  writer.begin_object("timing");
  writer.end_object();
  return outcome;
}

ScenarioOutcome run_dse(const ScenarioSpec& spec, api::Session& session,
                        api::JsonWriter& writer) {
  ScenarioOutcome outcome;
  core::DseEngine::Options options;
  options.parallel = !spec.dse_serial;
  const core::DseSweep& sweep = spec.config.dse;
  outcome.dse = session.run_dse(sweep, spec.model_zoo(), options);
  const core::DseResult& result = outcome.dse;
  const core::DsePoint& best = result.best();

  writer.begin_object("sweep");
  writer.field("variant", core::variant_name(sweep.variant_axis().front()));
  writer.field("max_area_mm2", sweep.max_area_mm2);
  writer.field("grid_candidates", result.stats.grid_candidates);
  writer.end_object();
  api::write_dse_stats(writer, result.stats);
  writer.begin_object("best");
  writer.field("N", best.conv_unit_size);
  writer.field("K", best.fc_unit_size);
  writer.field("n", best.conv_units);
  writer.field("m", best.fc_units);
  writer.field("fps_per_epb", best.fps_per_epb());
  writer.field("area_mm2", best.area_mm2);
  writer.end_object();
  const std::size_t shown =
      (spec.dse_top_k > 0 && spec.dse_top_k < result.points.size())
          ? spec.dse_top_k
          : result.points.size();
  api::write_dse_points(
      writer, "points",
      std::vector<core::DsePoint>(result.points.begin(),
                                  result.points.begin() +
                                      static_cast<long>(shown)));
  api::write_pareto_front(writer, result);
  if (!result.rejected.empty()) {
    api::write_dse_points(writer, "rejected", result.rejected);
  }
  writer.begin_object("timing");
  writer.end_object();
  return outcome;
}

ScenarioOutcome run_serve(const ScenarioSpec& spec, api::Session& session,
                          api::JsonWriter& writer) {
  ScenarioOutcome outcome;
  dnn::Table1ProxyMlp proxy = dnn::train_table1_proxy_mlp(spec.train_epochs);
  outcome.float_accuracy = proxy.float_accuracy;

  auto runtime = session.serve(spec.serving);
  // Tenant 0 keeps the canonical name (single-tenant scenarios match the
  // legacy CLI output); further tenants get -t<k> suffixed registrations of
  // the same prototype, so served accuracy is scored identically.
  std::vector<std::string> tenant_names;
  for (std::size_t t = 0; t < spec.tenants; ++t) {
    serve::ServedModel model = serve::table1_proxy_served_model(proxy.net);
    if (t > 0) model.name += "-t" + std::to_string(t);
    tenant_names.push_back(model.name);
    runtime->register_model(std::move(model));
  }
  runtime->start();

  std::vector<std::pair<std::size_t, std::size_t>> slices;
  const std::vector<std::size_t> rows =
      spec.arrivals.request_rows(spec.serving.max_batch);
  const std::vector<dnn::Tensor> trace = build_trace(proxy.test, rows, slices);
  const std::vector<double> gaps = arrival_gaps_us(spec.arrivals, trace.size());

  // Replay the trace (paced by the arrival gaps), score served accuracy
  // against the dataset labels, and fingerprint the logits in request order.
  const auto t0 = serve::Clock::now();
  std::vector<std::future<serve::InferResult>> futures;
  futures.reserve(trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (gaps[i] > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(gaps[i]));
    }
    futures.push_back(runtime->submit(tenant_names[i % tenant_names.size()], trace[i]));
  }
  double correct = 0.0;
  std::size_t samples = 0;
  std::vector<dnn::Tensor> logits;
  logits.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    serve::InferResult result = futures[i].get();
    const auto [start, count] = slices[i];
    correct += static_cast<double>(count) *
               dnn::accuracy(result.logits, dnn::batch_labels(proxy.test, start, count));
    samples += count;
    logits.push_back(std::move(result.logits));
  }
  const double wall_us =
      std::chrono::duration<double, std::micro>(serve::Clock::now() - t0).count();
  runtime->stop();
  outcome.serving_stats = runtime->stats();
  outcome.served_accuracy = correct / static_cast<double>(samples);
  outcome.logits_checksum = fnv1a_logits(logits);
  outcome.wall_us = wall_us;
  outcome.achieved_fps =
      wall_us > 0.0 ? static_cast<double>(samples) * 1e6 / wall_us : 0.0;

  writer.begin_object("serving");
  writer.field("model", "table1-proxy-mlp");
  writer.field("workers", spec.serving.workers);
  writer.field("max_batch", spec.serving.max_batch);
  writer.field("deadline_us", spec.serving.deadline_us);
  writer.field("tenants", spec.tenants);
  writer.field("arrival_process", ArrivalSpec::process_name(spec.arrivals.process));
  writer.field("requests", outcome.serving_stats.requests);
  writer.field("samples", outcome.serving_stats.samples);
  writer.field("float_test_accuracy", proxy.float_accuracy);
  writer.field("served_accuracy", outcome.served_accuracy);
  writer.field("logits_fnv1a", hex64(outcome.logits_checksum));
  writer.end_object();

  writer.begin_object("timing");
  writer.field("wall_us", outcome.wall_us);
  writer.field("achieved_fps", outcome.achieved_fps);
  const auto [p50, p99] = serve::latency_p50_p99_us(outcome.serving_stats.latency_us);
  writer.field("latency_p50_us", p50);
  writer.field("latency_p99_us", p99);
  api::write_serving_stats(writer, "serving", outcome.serving_stats);
  writer.end_object();
  return outcome;
}

}  // namespace

std::uint64_t fnv1a_logits(const std::vector<dnn::Tensor>& logits_per_request) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto fold = [&hash](std::uint64_t word, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      hash ^= (word >> (8 * b)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const dnn::Tensor& logits : logits_per_request) {
    fold(logits.numel(), 8);
    for (const float value : logits.span()) {
      std::uint32_t bits = 0;
      static_assert(sizeof bits == sizeof value);
      std::memcpy(&bits, &value, sizeof bits);
      fold(bits, 4);
    }
  }
  return hash;
}

ScenarioRunner::ScenarioRunner(ScenarioSpec spec) : spec_(std::move(spec)) {
  spec_.validate();
}

ScenarioOutcome ScenarioRunner::run() {
  api::Session session(spec_.config);
  api::JsonWriter writer;
  writer.field("scenario", spec_.name);
  if (!spec_.description.empty()) writer.field("description", spec_.description);
  writer.field("mode", mode_name(spec_.mode));
  write_config_echo(writer, spec_);
  api::write_effect_config(writer, spec_.config.vdp.effective_effects());

  ScenarioOutcome outcome;
  switch (spec_.mode) {
    case Mode::kEvaluate:
      outcome = run_evaluate(spec_, session, writer);
      break;
    case Mode::kFunctional:
      outcome = run_functional(spec_, session, writer);
      break;
    case Mode::kDse:
      outcome = run_dse(spec_, session, writer);
      break;
    case Mode::kServe:
      outcome = run_serve(spec_, session, writer);
      break;
  }
  outcome.mode = spec_.mode;
  outcome.json = writer.finish();
  return outcome;
}

}  // namespace xl::scenario
