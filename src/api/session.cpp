#include "api/session.hpp"

#include <stdexcept>
#include <utility>

#include "api/analytical_backend.hpp"
#include "serve/serving_runtime.hpp"

namespace xl::api {

Session::Session(SimConfig config, const BackendRegistry* registry)
    : config_(std::move(config)),
      registry_(registry != nullptr ? registry : &default_registry()) {
  config_.validate();
}

void Session::set_config(SimConfig config) {
  config.validate();
  config_ = std::move(config);
  // The DSE memo was built under the previous config's knobs.
  std::lock_guard<std::mutex> lock(dse_mutex_);
  dse_engine_.clear_cache();
}

Backend& Session::backend(const std::string& name) {
  // Instance creation is serialized; the returned reference stays valid for
  // the session's lifetime (node-stable map of unique_ptrs), so concurrent
  // evaluations may use it lock-free.
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_.find(name);
  if (it == cache_.end()) {
    it = cache_.emplace(name, registry_->create(name)).first;
  }
  return *it->second;
}

EvalResult Session::evaluate(const std::string& backend_name,
                             const dnn::ModelSpec& model) {
  EvalRequest request;
  request.model = model;
  request.config = config_;
  return backend(backend_name).evaluate(request);
}

std::vector<EvalResult> Session::evaluate_all(
    const std::string& backend_name, const std::vector<dnn::ModelSpec>& models) {
  std::vector<EvalResult> results;
  results.reserve(models.size());
  for (const auto& model : models) results.push_back(evaluate(backend_name, model));
  return results;
}

core::AcceleratorSummary Session::summarize(const std::string& backend_name,
                                            const std::vector<dnn::ModelSpec>& models) {
  Backend& b = backend(backend_name);
  if (b.capabilities().reference_only) {
    // Literature constants are model-averaged already; one evaluation holds
    // the whole row.
    EvalRequest request;
    request.config = config_;
    return b.evaluate(request).summary;
  }
  std::vector<core::AcceleratorReport> reports;
  reports.reserve(models.size());
  for (const auto& model : models) {
    EvalRequest request;
    request.model = model;
    request.config = config_;
    reports.push_back(b.evaluate(request).report);
  }
  return core::summarize(reports);
}

EvalResult Session::evaluate_functional(const std::string& backend_name,
                                        const dnn::ModelSpec& model,
                                        dnn::Network& network,
                                        const dnn::Dataset& dataset) {
  EvalRequest request;
  request.model = model;
  request.config = config_;
  request.network = &network;
  request.dataset = &dataset;
  return backend(backend_name).evaluate(request);
}

core::DseResult Session::run_dse(const core::DseSweep& sweep,
                                 const std::vector<dnn::ModelSpec>& models,
                                 const core::DseEngine::Options& options) {
  // The engine's memo is one shared resource:
  // concurrent run_dse calls are serialized rather than interleaved.
  std::lock_guard<std::mutex> dse_lock(dse_mutex_);
  if (sweep.effects.size() > 1) {
    throw std::invalid_argument(
        "Session::run_dse: the analytical registry backends are "
        "effects-insensitive, so an effects axis would multiply evaluation "
        "cost without varying any result; run core::DseEngine with an "
        "effects-sensitive evaluator instead");
  }
  // Resolve the per-variant backends up front: Backend creation mutates the
  // session cache, while the evaluator below runs on executor lanes. The
  // analytical backends themselves are stateless and thread-safe.
  std::map<core::Variant, Backend*> backends;
  for (core::Variant v : sweep.variant_axis()) {
    backends.emplace(v, &backend(AnalyticalBackend::registry_key(v)));
  }
  const bool sweep_resolution = !sweep.resolution_bits.empty();
  // One template config for every job: the session knobs with the sweep
  // reset to its default, so each of the grid-size-many per-job copies and
  // backend-side validations doesn't drag the (arbitrarily large) sweep
  // axes along.
  SimConfig job_config = config_;
  job_config.dse = core::DseSweep{};
  dse_engine_.set_options(options);
  return dse_engine_.run(
      sweep, models,
      [&backends, &job_config, sweep_resolution](
          const core::DseCandidate& candidate, const dnn::ModelSpec& model) {
        EvalRequest request;
        request.model = model;
        request.config = job_config;
        request.config.architecture = candidate.config;
        // An explicit resolution axis drives the functional view too,
        // mirroring the CLI's --resolution semantics.
        if (sweep_resolution) {
          request.config.vdp.resolution_bits = candidate.config.resolution_bits;
        }
        return backends.at(candidate.config.variant)->evaluate(request).report;
      });
}

std::unique_ptr<serve::ServingRuntime> Session::serve(
    serve::ServingOptions options) const {
  // The session's architecture is the pacing reference; its vdp options are
  // the shared immutable engine configuration every shard clones from.
  options.architecture = config_.architecture;
  return std::make_unique<serve::ServingRuntime>(config_.vdp, options);
}

}  // namespace xl::api
