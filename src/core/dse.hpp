// Design-space exploration over (N, K, n, m) — Fig. 6.
//
// For every candidate configuration the four Table I models are evaluated;
// the selected design maximizes FPS/EPB (the paper's criterion), which for
// the paper lands on (20, 150, 100, 60).
//
// This header holds the sweep description (DseSweep), its result rows
// (DsePoint) and their ranking. Beyond the paper's fixed grid, DseSweep
// carries scenario-diversity axes (architecture variants, datapath
// resolutions, area budgets, non-ideality configurations). The one entry
// point that walks the expanded grid is DseEngine::run in
// core/dse_engine.hpp; its evaluator callback lets higher layers
// (api::Session) route every candidate through a registry backend.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/effects.hpp"

namespace xl::core {

struct DsePoint {
  std::size_t conv_unit_size = 0;  ///< N
  std::size_t fc_unit_size = 0;    ///< K
  std::size_t conv_units = 0;      ///< n
  std::size_t fc_units = 0;        ///< m
  Variant variant = Variant::kOptTed;
  int resolution_bits = 16;
  double area_budget_mm2 = 0.0;  ///< Budget slice the candidate was admitted under.
  std::size_t candidate_id = 0;  ///< Dense index into the expanded grid.

  double avg_fps = 0.0;
  double avg_epb_pj = 0.0;
  double area_mm2 = 0.0;
  double avg_power_w = 0.0;

  bool on_pareto = false;   ///< Non-dominated over (fps, epb, area, power).
  bool degenerate = false;  ///< Evaluation produced non-finite/non-positive metrics.

  /// The paper's selection criterion.
  [[nodiscard]] double fps_per_epb() const noexcept {
    return avg_epb_pj > 0.0 ? avg_fps / avg_epb_pj : 0.0;
  }
};

/// Strict total order used to rank sweep results: FPS/EPB descending, ties
/// broken by ascending (N, K, n, m), then (variant, resolution, budget,
/// candidate id). Total by construction — candidate ids are unique — so the
/// ranking (and DseResult::best) is identical across stdlib std::sort
/// implementations and thread counts.
[[nodiscard]] bool dse_point_less(const DsePoint& a, const DsePoint& b) noexcept;

struct DseSweep {
  std::vector<std::size_t> conv_unit_sizes = {10, 15, 20, 25, 30};
  std::vector<std::size_t> fc_unit_sizes = {50, 100, 150, 200};
  std::vector<std::size_t> conv_unit_counts = {50, 100, 150};
  std::vector<std::size_t> fc_unit_counts = {30, 60, 90};
  Variant variant = Variant::kOptTed;
  /// Skip configurations whose area exceeds this budget (paper: ~25 mm^2
  /// comparisons; DSE itself explores a wider envelope).
  double max_area_mm2 = 60.0;

  // Scenario-diversity axes. Every non-empty axis multiplies the candidate
  // grid; an empty axis falls back to the single legacy value (variant /
  // max_area_mm2 / base.resolution_bits / the ideal datapath).
  std::vector<Variant> variants;         ///< Architecture variants to compare.
  std::vector<int> resolution_bits;      ///< Datapath resolutions, each in [1, 16].
  std::vector<double> area_budgets_mm2;  ///< Envelope slices (each <= max fits).
  /// Per-candidate non-ideality configs, for effects-sensitive evaluators
  /// driven through core::DseEngine (the analytical registry path of
  /// api::Session::run_dse is effects-insensitive and rejects multi-entry
  /// axes).
  std::vector<EffectConfig> effects;

  /// Non-swept knobs every candidate inherits (mrs_per_bank, pitches,
  /// devices). Defaults to the paper's flagship configuration.
  ArchitectureConfig base{};

  // Resolved axes (legacy fallbacks applied).
  [[nodiscard]] std::vector<Variant> variant_axis() const;
  [[nodiscard]] std::vector<int> resolution_axis() const;
  [[nodiscard]] std::vector<double> budget_axis() const;
  /// Candidates in the fully expanded grid (before area filtering).
  [[nodiscard]] std::size_t grid_size() const;

  /// Throws std::invalid_argument naming the offending axis: any empty
  /// (N, K, n, m) axis, non-positive entries, resolutions outside [1, 16],
  /// non-positive area budgets, or invalid effect/base configurations.
  void validate() const;
};

}  // namespace xl::core
