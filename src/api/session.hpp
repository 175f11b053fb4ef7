// Session — the single entry point of the evaluation API.
//
// A Session owns one SimConfig and resolves backends by name from a
// BackendRegistry (the default registry unless one is injected). Backend
// instances are cached per session, so repeated evaluations of the same
// backend reuse its precomputed state.
//
//   api::Session session;
//   auto result = session.evaluate("crosslight:opt_ted", dnn::lenet5_spec());
//   auto table  = session.summarize("deap_cnn", dnn::table1_models());
//
// Thread-safety guarantee (serving worker pools): the backend-instance
// cache and the DSE memo are lock-protected, so one Session may be shared
// by concurrent callers of backend() / evaluate() / evaluate_all() /
// summarize() / evaluate_functional() / run_dse() — instances are created
// exactly once and run_dse calls are serialized on the shared memo. The
// registry backends themselves hold no per-call mutable state (the
// functional backend constructs a fresh engine per evaluation). Two
// caveats: the network/dataset arguments of evaluate_functional() must be
// thread-private (Layer::forward caches activations even in inference
// mode — the same hazard that makes serve shards replicate networks), and
// set_config() requires exclusive use: it swaps the config every in-flight
// evaluation snapshots, so callers must not race it against evaluations.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/backend.hpp"
#include "api/registry.hpp"
#include "core/dse_engine.hpp"
#include "core/report.hpp"
#include "dnn/layer_spec.hpp"
#include "serve/serve_types.hpp"

namespace xl::serve {
class ServingRuntime;
}  // namespace xl::serve

namespace xl::dnn {
class Network;
struct Dataset;
}  // namespace xl::dnn

namespace xl::api {

class Session {
 public:
  /// Validates the config up front (throws std::invalid_argument). A null
  /// registry selects default_registry(); an injected registry must outlive
  /// the session.
  explicit Session(SimConfig config = {}, const BackendRegistry* registry = nullptr);

  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  /// Replace the session config (validated).
  void set_config(SimConfig config);

  [[nodiscard]] const BackendRegistry& registry() const noexcept { return *registry_; }
  /// Registered backend names, in registration order.
  [[nodiscard]] std::vector<std::string> backends() const { return registry_->names(); }

  /// The cached instance of a backend (created on first use).
  [[nodiscard]] Backend& backend(const std::string& name);

  /// Evaluate one model on one backend with the session config.
  [[nodiscard]] EvalResult evaluate(const std::string& backend_name,
                                    const dnn::ModelSpec& model);

  /// Evaluate a model zoo (e.g. the Table I models).
  [[nodiscard]] std::vector<EvalResult> evaluate_all(
      const std::string& backend_name, const std::vector<dnn::ModelSpec>& models);

  /// Model-averaged Table III row for one backend. Reference-only backends
  /// return their literature constants directly.
  [[nodiscard]] core::AcceleratorSummary summarize(
      const std::string& backend_name, const std::vector<dnn::ModelSpec>& models);

  /// Functional evaluation: run `network` on the named backend's datapath
  /// over `dataset`, with `model` providing the analytical workload shape
  /// (pass {} to skip the analytical metrics).
  [[nodiscard]] EvalResult evaluate_functional(const std::string& backend_name,
                                               const dnn::ModelSpec& model,
                                               dnn::Network& network,
                                               const dnn::Dataset& dataset);

  /// Fig. 6 design-space exploration routed through the registry: every
  /// candidate (N, K, n, m, variant, resolution, budget) is evaluated
  /// in parallel on the xl::exec pool by the analytical backend matching its variant, with
  /// the session config supplying the remaining knobs. The result carries
  /// the ranked points, the (fps, epb, area, power) Pareto front, flagged
  /// degenerate candidates, and cache statistics. The engine's memo
  /// persists across calls on one session (a repeated or overlapping sweep
  /// re-pays nothing; set_config clears it). The analytical backends are
  /// effects-insensitive, so a sweep with more than one EffectConfig is
  /// rejected here — drive effect axes through core::DseEngine with an
  /// effects-sensitive evaluator instead.
  [[nodiscard]] core::DseResult run_dse(const core::DseSweep& sweep,
                                        const std::vector<dnn::ModelSpec>& models,
                                        const core::DseEngine::Options& options = {});

  /// Serving facade: build a ServingRuntime whose shards each construct
  /// their own PhotonicInferenceEngine from this session's immutable vdp
  /// options, with the session's architecture driving optional
  /// hardware-time pacing. The session hands out engine configuration
  /// instead of being the sole evaluation caller — register models on the
  /// returned runtime, then start() it. The runtime is independent of the
  /// session afterwards (set_config does not affect running shards).
  [[nodiscard]] std::unique_ptr<serve::ServingRuntime> serve(
      serve::ServingOptions options = {}) const;

 private:
  SimConfig config_;
  const BackendRegistry* registry_;
  std::map<std::string, std::unique_ptr<Backend>> cache_;
  core::DseEngine dse_engine_;  ///< Memo persists across run_dse calls.
  mutable std::mutex cache_mutex_;  ///< Guards cache_ (serving worker pools).
  std::mutex dse_mutex_;            ///< Serializes run_dse on the shared memo.
};

}  // namespace xl::api
