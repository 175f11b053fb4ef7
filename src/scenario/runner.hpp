// ScenarioRunner — execute one ScenarioSpec end to end.
//
// The runner is the single execution engine behind `crosslight_cli
// --scenario`, the scenario-corpus CI step, and the migrated examples: it
// builds an api::Session from the spec's lowered SimConfig, dispatches on
// the scenario mode (evaluate / functional / dse / serve), and
// emits ONE normalized JSON report via api::JsonWriter.
//
// Report normalization contract (tools/check_scenario_golden.py): every
// value outside the top-level "timing" object is deterministic — identical
// bits on every run, for any worker count or batch grouping (the serving
// determinism contract makes served accuracy and the logits checksum
// deterministic fields). Everything wall-clock-dependent
// (latency, throughput, micro-batch counts, per-shard distribution) is
// collected under "timing", which the golden differ masks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/eval_types.hpp"
#include "core/dse_engine.hpp"
#include "scenario/spec.hpp"
#include "serve/serve_types.hpp"

namespace xl::scenario {

/// Everything a run produced: the normalized JSON report plus the
/// structured results, so text-mode consumers (the CLI's human-readable
/// output) never re-run or re-parse.
struct ScenarioOutcome {
  Mode mode = Mode::kEvaluate;
  std::string json;  ///< The normalized report (see header comment).

  /// evaluate mode: one row per (backend, model) pair, zoo-major order.
  struct EvalRow {
    std::string backend;
    std::string model;
    api::EvalResult result;
  };
  std::vector<EvalRow> evals;

  /// functional mode: one row per backend (EvalResult::functional filled).
  std::vector<EvalRow> functional;
  double float_accuracy = 0.0;  ///< Proxy MLP float test accuracy.

  /// dse mode.
  core::DseResult dse;

  /// serve mode.
  serve::ServingStats serving_stats;
  double served_accuracy = 0.0;
  std::uint64_t logits_checksum = 0;  ///< FNV-1a over logits, request order.
  double wall_us = 0.0;
  double achieved_fps = 0.0;
};

class ScenarioRunner {
 public:
  /// Validates the spec (throws std::invalid_argument naming the scenario).
  explicit ScenarioRunner(ScenarioSpec spec);

  [[nodiscard]] const ScenarioSpec& spec() const noexcept { return spec_; }

  /// Execute the scenario. Exceptions from the underlying layers propagate
  /// with their original messages (the spec was already validated, so a
  /// throw here is an execution failure, not a configuration typo).
  [[nodiscard]] ScenarioOutcome run();

 private:
  ScenarioSpec spec_;
};

/// FNV-1a 64-bit over the bit patterns of `logits` tensors in request
/// order (rows and float payloads both folded in) — the serving
/// determinism fingerprint reported in scenario goldens.
[[nodiscard]] std::uint64_t fnv1a_logits(
    const std::vector<dnn::Tensor>& logits_per_request);

}  // namespace xl::scenario
