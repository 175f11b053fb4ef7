// Scenario: architect a CrossLight deployment for a custom model mix under
// an area budget — the Fig. 6 methodology applied to user workloads.
//
// Sweeps (N, K, n, m) across two area-budget slices, and recommends the best
// FPS/EPB configuration plus runner-ups for latency- or power-optimized
// deployments off the (fps, epb, area, power) Pareto front. Candidates are
// evaluated in parallel through the api::Session registry path (the
// analytical backend matching each candidate's variant); the engine's memo
// cache means the second, wider budget slice reuses every evaluation of the
// first.
#include <cstdio>

#include "api/api.hpp"
#include "core/dse_engine.hpp"
#include "dnn/models.hpp"

int main() {
  using namespace xl;

  // A custom workload mix: an edge-vision stack (models 1 and 2) — contrast
  // with the paper's full 4-model zoo.
  const std::vector<dnn::ModelSpec> workload{dnn::lenet5_spec(), dnn::cnn_cifar10_spec()};

  core::DseSweep sweep;
  sweep.max_area_mm2 = 25.0;  // Tight edge budget.
  // Explore the tight budget and a relaxed one in the same run: overlapping
  // slices share candidate evaluations through the engine's memo cache.
  sweep.area_budgets_mm2 = {15.0, 25.0};

  std::printf("Design-space exploration for a 2-model edge workload "
              "(area budgets 15 / 25 mm2)...\n\n");
  api::Session session;
  const core::DseResult result = session.run_dse(sweep, workload);

  const core::DsePoint& best = result.best();
  std::printf("Recommended (max FPS/EPB): (N, K, n, m) = (%zu, %zu, %zu, %zu) "
              "under the %.0f mm2 slice\n",
              best.conv_unit_size, best.fc_unit_size, best.conv_units, best.fc_units,
              best.area_budget_mm2);
  std::printf("  avg FPS %.0f | avg EPB %.4f pJ/bit | %.1f W | %.1f mm2\n\n",
              best.avg_fps, best.avg_epb_pj, best.avg_power_w, best.area_mm2);

  // Alternative optimization targets live on the Pareto front by
  // construction: the fastest and leanest non-dominated designs.
  const core::DsePoint* fastest = &result.pareto.front();
  const core::DsePoint* leanest = &result.pareto.front();
  for (const auto& p : result.pareto) {
    if (p.avg_fps > fastest->avg_fps) fastest = &p;
    if (p.avg_power_w < leanest->avg_power_w) leanest = &p;
  }
  std::printf("Pareto front over (fps, epb, area, power): %zu of %zu points\n",
              result.pareto.size(), result.points.size());
  std::printf("Latency-optimized:  (%zu, %zu, %zu, %zu) at %.0f FPS, %.1f W\n",
              fastest->conv_unit_size, fastest->fc_unit_size, fastest->conv_units,
              fastest->fc_units, fastest->avg_fps, fastest->avg_power_w);
  std::printf("Power-optimized:    (%zu, %zu, %zu, %zu) at %.0f FPS, %.1f W\n\n",
              leanest->conv_unit_size, leanest->fc_unit_size, leanest->conv_units,
              leanest->fc_units, leanest->avg_fps, leanest->avg_power_w);

  std::printf("Top 5 by FPS/EPB (* = on Pareto front):\n");
  std::printf("%-2s %-4s %-4s %-4s %-4s %-7s %-10s %-12s %-9s %-8s\n", "", "N", "K",
              "n", "m", "budget", "FPS", "EPB pJ/bit", "power W", "mm2");
  for (std::size_t i = 0; i < result.points.size() && i < 5; ++i) {
    const auto& p = result.points[i];
    std::printf("%-2s %-4zu %-4zu %-4zu %-4zu %-7.0f %-10.0f %-12.4f %-9.1f %-8.1f\n",
                p.on_pareto ? "*" : "", p.conv_unit_size, p.fc_unit_size, p.conv_units,
                p.fc_units, p.area_budget_mm2, p.avg_fps, p.avg_epb_pj, p.avg_power_w,
                p.area_mm2);
  }

  std::printf("\nEngine: %zu grid candidates, %zu area-filtered, %zu evaluations, "
              "%zu cache hits (%.0f%% — the 25 mm2 slice reused the 15 mm2 one)\n",
              result.stats.grid_candidates, result.stats.area_filtered,
              result.stats.evaluations, result.stats.cache_hits,
              100.0 * result.stats.cache_hit_rate());
  return 0;
}
