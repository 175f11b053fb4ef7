// Fig. 6 reproduction: FPS vs EPB vs area scatter over (N, K, n, m)
// configurations of the CONV/FC VDP unit pools; selection by max FPS/EPB.
//
// Doubles as the DseEngine performance harness: the same sweep runs through
// the serial path (the pre-engine behavior: no cache, one candidate at a
// time) and the parallel engine on the xl::exec pool, asserts bit-identity
// between the two, re-runs the parallel engine warm to measure the memo
// cache, and emits BENCH_fig6_dse.json with the wall-clock trajectory.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>

#include "api/json_writer.hpp"
#include "core/dse_engine.hpp"
#include "dnn/models.hpp"

#include "exec/task_pool.hpp"

namespace {

double run_ms(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

bool points_identical(const std::vector<xl::core::DsePoint>& a,
                      const std::vector<xl::core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& p = a[i];
    const auto& q = b[i];
    if (p.conv_unit_size != q.conv_unit_size || p.fc_unit_size != q.fc_unit_size ||
        p.conv_units != q.conv_units || p.fc_units != q.fc_units ||
        p.avg_fps != q.avg_fps || p.avg_epb_pj != q.avg_epb_pj ||
        p.area_mm2 != q.area_mm2 || p.avg_power_w != q.avg_power_w) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace xl::core;

  std::printf("=== Fig. 6: CrossLight sensitivity analysis (DSE over N, K, n, m) ===\n\n");
  const DseSweep sweep;  // Full default sweep.
  const auto models = xl::dnn::table1_models();

  const int threads = static_cast<int>(xl::exec::width());

  // Serial reference: the pre-engine sweep shape (no memo, no parallelism).
  DseEngine::Options serial_opts;
  serial_opts.parallel = false;
  serial_opts.cache_enabled = false;
  DseEngine serial_engine(serial_opts);
  DseResult serial;
  const double serial_ms = run_ms([&] { serial = serial_engine.run(sweep, models); });

  // Parallel engine, cold cache, then warm (same engine, same sweep).
  DseEngine parallel_engine;
  DseResult parallel;
  const double parallel_ms =
      run_ms([&] { parallel = parallel_engine.run(sweep, models); });
  DseResult warm;
  const double warm_ms = run_ms([&] { warm = parallel_engine.run(sweep, models); });

  const bool identical = points_identical(serial.points, parallel.points) &&
                         points_identical(parallel.points, warm.points);
  if (!identical) {
    std::fprintf(stderr, "FAIL: serial and parallel DSE results differ\n");
    return 1;
  }
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;

  const auto& points = parallel.points;
  std::printf("%-4s %-4s %-4s %-4s %-12s %-12s %-10s %-10s %-12s\n", "N", "K", "n", "m",
              "avg FPS", "avg EPB pJ", "area mm2", "power W", "FPS/EPB");
  const std::size_t show = points.size() < 20 ? points.size() : 20;
  for (std::size_t i = 0; i < show; ++i) {
    const DsePoint& p = points[i];
    std::printf("%-4zu %-4zu %-4zu %-4zu %-12.0f %-12.4f %-10.1f %-10.1f %-12.3e\n",
                p.conv_unit_size, p.fc_unit_size, p.conv_units, p.fc_units, p.avg_fps,
                p.avg_epb_pj, p.area_mm2, p.avg_power_w, p.fps_per_epb());
  }
  std::printf("... (%zu configurations total, sorted by FPS/EPB; Pareto front: %zu)\n\n",
              points.size(), parallel.pareto.size());

  const DsePoint& best = parallel.best();
  std::printf("Our sweep's best FPS/EPB: (N, K, n, m) = (%zu, %zu, %zu, %zu), "
              "area %.1f mm2\n",
              best.conv_unit_size, best.fc_unit_size, best.conv_units, best.fc_units,
              best.area_mm2);

  std::size_t paper_rank = 0;  // 1-based; 0 = missing from the grid.
  const DsePoint* paper = nullptr;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const DsePoint& p = points[i];
    if (p.conv_unit_size == 20 && p.fc_unit_size == 150 && p.conv_units == 100 &&
        p.fc_units == 60) {
      paper_rank = i + 1;
      paper = &p;
      std::printf("Paper's selection  (20, 150, 100, 60): rank %zu of %zu, "
                  "FPS/EPB at %.0f%% of best, area %.1f mm2.\n"
                  "Documented deviation (EXPERIMENTS.md): our EPB is static-power\n"
                  "dominated, favouring smaller FC pools; the paper's pick remains\n"
                  "competitive and is used for all comparisons.\n",
                  paper_rank, points.size(), 100.0 * p.fps_per_epb() / best.fps_per_epb(),
                  p.area_mm2);
    }
  }
  if (paper == nullptr) {
    std::fprintf(stderr, "FAIL: paper selection (20, 150, 100, 60) missing from grid\n");
    return 1;
  }

  std::printf("\nDseEngine: %d threads | serial %.1f ms | parallel %.1f ms (%.2fx) | "
              "warm re-run %.1f ms (%zu evals, %zu cache hits, %.0f%% hit rate)\n",
              threads, serial_ms, parallel_ms, speedup, warm_ms, warm.stats.evaluations,
              warm.stats.cache_hits, 100.0 * warm.stats.cache_hit_rate());

  xl::api::JsonWriter writer;
  writer.field("bench", "fig6_sensitivity_dse");
  writer.field("threads", threads);
  writer.field("grid_candidates", parallel.stats.grid_candidates);
  writer.field("area_filtered", parallel.stats.area_filtered);
  writer.field("models", models.size());
  writer.field("serial_ms", serial_ms);
  writer.field("parallel_ms", parallel_ms);
  writer.field("speedup", speedup);
  writer.field("warm_ms", warm_ms);
  writer.field("warm_evaluations", warm.stats.evaluations);
  writer.field("warm_cache_hits", warm.stats.cache_hits);
  writer.field("warm_cache_hit_rate", warm.stats.cache_hit_rate());
  writer.field("bit_identical", identical);
  writer.begin_object("best");
  writer.field("N", best.conv_unit_size);
  writer.field("K", best.fc_unit_size);
  writer.field("n", best.conv_units);
  writer.field("m", best.fc_units);
  writer.field("fps_per_epb", best.fps_per_epb());
  writer.field("area_mm2", best.area_mm2);
  writer.end_object();
  writer.begin_object("paper_selection");
  writer.field("N", static_cast<std::size_t>(20));
  writer.field("K", static_cast<std::size_t>(150));
  writer.field("n", static_cast<std::size_t>(100));
  writer.field("m", static_cast<std::size_t>(60));
  writer.field("present_on_grid", true);
  writer.field("rank", paper_rank);
  writer.field("fps_per_epb_vs_best", paper->fps_per_epb() / best.fps_per_epb());
  writer.field("area_mm2", paper->area_mm2);
  writer.end_object();
  xl::api::write_dse_stats(writer, parallel.stats);
  xl::api::write_pareto_front(writer, parallel);
  std::ofstream("BENCH_fig6_dse.json") << writer.finish() << '\n';
  std::printf("Wrote BENCH_fig6_dse.json\n");
  return 0;
}
