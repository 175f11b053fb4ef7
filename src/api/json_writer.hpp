// Minimal ordered JSON emitter for machine-readable tool output
// (crosslight_cli --json, the BENCH_*.json perf-trajectory files).
//
// Supports exactly what those producers need: nested objects/arrays with
// insertion-ordered keys, correctly escaped strings, and non-finite doubles
// serialized as null. Two-space indented for human diffing.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace xl::core {
struct DsePoint;
struct DseResult;
struct DseStats;
struct EffectConfig;
}  // namespace xl::core

namespace xl::serve {
struct ServingStats;
}  // namespace xl::serve

namespace xl::api {

class JsonWriter {
 public:
  /// Root object is opened on construction.
  JsonWriter();

  // Values inside an object.
  void field(const std::string& key, const std::string& value);
  void field(const std::string& key, const char* value);
  void field(const std::string& key, double value);
  void field(const std::string& key, std::size_t value);
  void field(const std::string& key, int value);
  void field(const std::string& key, bool value);

  // Values inside an array.
  void element(const std::string& value);
  void element(double value);

  void begin_object(const std::string& key);  ///< Named, inside an object.
  void begin_object();                        ///< Anonymous, inside an array.
  void end_object();
  void begin_array(const std::string& key);
  void end_array();

  /// Close the root object and return the document. The writer is spent
  /// afterwards.
  [[nodiscard]] std::string finish();

  [[nodiscard]] static std::string escape(const std::string& raw);

 private:
  void comma_and_indent();

  std::string out_;
  std::vector<bool> first_in_scope_;  ///< One flag per open scope.
};

/// Emit the non-ideality pipeline configuration as a named "effects" object
/// (stage switches, seed, and the physically meaningful stage knobs), so
/// every --json/BENCH_*.json consumer records which datapath it measured.
void write_effect_config(JsonWriter& writer, const core::EffectConfig& effects);

/// Emit DSE points as a named array of objects, streaming one object per
/// point: the (N, K, n, m) tuple, scenario axes (variant, resolution,
/// budget), the averaged metrics, the selection criterion, and the
/// on_pareto / degenerate flags.
void write_dse_points(JsonWriter& writer, const std::string& key,
                      const std::vector<core::DsePoint>& points);

/// Emit a DseResult's Pareto front as the "pareto_front" array.
void write_pareto_front(JsonWriter& writer, const core::DseResult& result);

/// Emit engine statistics as the "stats" object (grid size, area-filtered
/// and degenerate counts, evaluator calls, cache hits and hit rate).
void write_dse_stats(JsonWriter& writer, const core::DseStats& stats);

/// Emit a serving-runtime snapshot as a named object: request/sample/batch
/// counters, mean batch rows, p50/p99 latency, the batch-size histogram
/// (only non-empty bins), and the merged photonic work counters.
void write_serving_stats(JsonWriter& writer, const std::string& key,
                         const serve::ServingStats& stats);

}  // namespace xl::api
