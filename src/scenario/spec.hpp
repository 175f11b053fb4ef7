// ScenarioSpec — the typed, validated scenario document.
//
// One scenario file declares a complete workload: the model zoo and backend
// set, the architecture and signal-level datapath, the non-ideality effect
// stack, an arrival process (burst / open-loop Poisson / trace replay), the
// DSE axes, and the serving policy. parse() consumes a ScenarioDocument
// section by section with unknown sections and keys rejected by name,
// lowers the values onto the existing api::SimConfig / core::DseSweep /
// serve::ServingOptions types, and validates the result — every error names [section].key and the source
// file:line. serialize() emits the canonical normal form (every knob
// explicit), and parse(serialize(spec)) is the identity: the round-trip
// contract pinned by tests/test_scenario.cpp.
//
// Section / key map (all optional; defaults mirror crosslight_cli's flags):
//   [scenario]     name, description, mode (evaluate|functional|dse|serve)
//   [vars]         free variables for ${var} substitution
//   [architecture] N, K, n, m, mrs_per_bank, resolution_bits, variant,
//                  pitch_ted_um, pitch_guard_um
//   [datapath]     mrs_per_bank, resolution_bits, q_factor, fsr_nm,
//                  center_wavelength_nm, crosstalk
//   [effects]      stages (EffectConfig::parse csv), seed, thermal.pitch_um,
//                  thermal.use_ted, thermal.ambient_drift_nm,
//                  thermal.ambient_period_us, thermal.dt_us, fpv.design,
//                  fpv.pitch_um, fpv.trim_residual_fraction,
//                  noise.optical_power_mw
//   [models]       models (lenet5|cnn_cifar10|cnn_stl10|siamese|table1),
//                  backends (registry names, or "all")
//   [eval]         samples, batch_size, train_epochs, track_layer_error
//   [arrivals]     process (burst|poisson|trace), requests, rate_per_s,
//                  seed, trace (rows per request)
//   [serving]      workers, max_batch, deadline_us, queue_capacity, tenants,
//                  pace_hardware_time, pace_scale
//   [dse]          N, K, n, m, variants, resolutions, budgets_mm2,
//                  max_area_mm2, top_k, serial
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/eval_types.hpp"
#include "scenario/ini.hpp"
#include "serve/serve_types.hpp"

namespace xl::scenario {

enum class Mode : std::uint8_t { kEvaluate, kFunctional, kDse, kServe };

[[nodiscard]] std::string mode_name(Mode mode);
[[nodiscard]] Mode mode_from_name(const std::string& name);

/// Scenario/CLI variant tokens: base | base_ted | opt | opt_ted (the
/// registry suffixes of the crosslight:* backends, distinct from the
/// paper-facing core::variant_name "Cross_opt_TED" spellings).
[[nodiscard]] std::string variant_token(core::Variant v);
[[nodiscard]] core::Variant variant_from_name(const std::string& token);

/// The request arrival process of serve scenarios. All three produce
/// the same per-request row sizes for the same settings, so the served
/// logits (and accuracy) are identical across processes — arrivals only
/// shape the queueing/batching dynamics, never the numerics.
struct ArrivalSpec {
  enum class Process : std::uint8_t {
    kBurst,    ///< Submit every request back to back (closed burst).
    kPoisson,  ///< Open loop: exponential inter-arrival gaps at rate_per_s.
    kTrace,    ///< Replay explicit per-request row counts from `trace`.
  };

  Process process = Process::kBurst;
  std::size_t requests = 64;      ///< Ignored by kTrace (trace length rules).
  double rate_per_s = 2000.0;     ///< Poisson arrival rate.
  std::uint64_t seed = 42;        ///< Poisson inter-arrival draws.
  std::vector<std::size_t> trace; ///< kTrace: rows per request, in order.

  [[nodiscard]] static const char* process_name(Process p);
  [[nodiscard]] static Process process_from_name(const std::string& name);

  /// Rows of each request this process emits (burst/poisson use the
  /// canonical 1..4 mixed-size cycle capped at max_rows; trace replays its
  /// explicit list, also capped). Never empty for valid specs.
  [[nodiscard]] std::vector<std::size_t> request_rows(std::size_t max_rows) const;
};

struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;
  Mode mode = Mode::kEvaluate;

  /// Lowered configuration consumed by api::Session (architecture, vdp
  /// datapath + effects, DSE sweep, functional eval knobs).
  api::SimConfig config;

  std::vector<std::string> models = {"table1"};  ///< Zoo selection tokens.
  std::vector<std::string> backends = {"crosslight:opt_ted"};

  std::size_t train_epochs = 20;  ///< Proxy-MLP recipe (functional/serve).

  ArrivalSpec arrivals;
  serve::ServingOptions serving{.workers = 2};  ///< CLI default worker count.
  std::size_t tenants = 1;        ///< Serve mode: proxy registrations.

  std::size_t dse_top_k = 0;  ///< 0 = full ranking.
  bool dse_serial = false;

  /// Parse and validate a document. An unknown section is rejected by
  /// name. Throws std::invalid_argument / std::runtime_error with messages
  /// naming [section].key and file:line.
  [[nodiscard]] static ScenarioSpec parse(const ScenarioDocument& doc);

  /// parse_file + parse in one step.
  [[nodiscard]] static ScenarioSpec load(const std::string& path);

  /// Canonical normal form: every knob explicit, sections in the order of
  /// the map above. parse(serialize()) reproduces this spec exactly (the
  /// round-trip contract).
  [[nodiscard]] std::string serialize() const;

  /// Cross-field validation (the per-key checks run during parse). Throws
  /// std::invalid_argument naming the offending [section].key.
  void validate() const;

  /// The Table I models selected by `models` ("table1" expands to the full
  /// zoo; tokens are lenet5 / cnn_cifar10 / cnn_stl10 / siamese). Order
  /// follows the zoo, duplicates collapse.
  [[nodiscard]] std::vector<dnn::ModelSpec> model_zoo() const;
};

/// Directory scenario files are resolved from: $XL_SCENARIO_DIR when set,
/// else the compiled-in source-tree scenarios/ path, else "scenarios".
[[nodiscard]] std::string default_scenario_dir();

/// "<default_scenario_dir()>/<name>.ini" (a name already ending in .ini or
/// containing a '/' is returned as-is).
[[nodiscard]] std::string scenario_path(const std::string& name);

}  // namespace xl::scenario
