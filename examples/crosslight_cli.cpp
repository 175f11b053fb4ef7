// Command-line evaluation tool over the xl::api facade and the xl::scenario
// workload DSL: evaluate any Table I model on any registered backend, or run
// a declarative scenario file end to end, with machine-readable output.
//
// Usage:
//   crosslight_cli [--scenario <name|file.ini>] [--list-backends]
//                  [--model 1..4] [--backend <name>]
//                  [--variant base|base_ted|opt|opt_ted]   (legacy alias for
//                                                           --backend crosslight:<v>)
//                  [--N <conv unit size>] [--K <fc unit size>]
//                  [--n <conv units>] [--m <fc units>]
//                  [--resolution <bits>] [--schedule] [--json]
//                  [--effects <csv>] [--samples <n>] [--train-epochs <n>]
//                  [--dse] [--top-k <n>] [--budget <mm2>] [--serial]
//                  [--serve] [--workers <n>] [--max-batch <n>]
//                  [--deadline-us <us>] [--requests <n>]
//
// --scenario loads a workload definition from scenarios/<name>.ini (or an
// explicit path; $XL_SCENARIO_DIR overrides the corpus directory) and every
// other flag becomes an override layered on top of the file — so
// `--scenario flash-crowd --workers 8` replays the declared workload on a
// wider shard pool. Without --scenario the flags assemble the same
// ScenarioSpec from its defaults; either way one ScenarioRunner executes
// the spec, and --json emits its normalized report (deterministic fields
// outside the "timing" object — see tools/check_scenario_golden.py).
//
// Mode selection: [scenario].mode from the file, overridden by --serve /
// --dse. The functional path is selected (as before) by a
// backend whose capabilities need a real network; plain analytical
// evaluation keeps its detailed single-model report (with --schedule pool
// utilization).
//
// Examples:
//   crosslight_cli --list-backends
//   crosslight_cli --model 3 --backend crosslight:opt_ted
//   crosslight_cli --scenario paper-repro --json
//   crosslight_cli --scenario flash-crowd --workers 8
//   crosslight_cli --backend functional --effects thermal,fpv,noise --json
//   crosslight_cli --dse --budget 25 --top-k 5 --json
//   crosslight_cli --serve --workers 4 --max-batch 8 --effects noise --json
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/api.hpp"
#include "core/scheduler.hpp"
#include "dnn/models.hpp"
#include "scenario/scenario.hpp"
#include "serve/serve_types.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: crosslight_cli [--scenario name|file.ini] [--list-backends]\n"
               "                      [--model 1..4] [--backend name]\n"
               "                      [--variant base|base_ted|opt|opt_ted]\n"
               "                      [--N size] [--K size] [--n count] [--m count]\n"
               "                      [--resolution bits] [--schedule] [--json]\n"
               "                      [--effects thermal,fpv,noise|all|none|ideal]\n"
               "                      [--samples n] [--train-epochs n]\n"
               "                      [--dse] [--top-k n] [--budget mm2] [--serial]\n"
               "                      [--serve] [--workers n] [--max-batch n]\n"
               "                      [--deadline-us us] [--requests n]\n");
}

// Strictly positive integer flag value; a negative would otherwise wrap to
// SIZE_MAX through the size_t cast and dodge the == 0 checks.
std::size_t parse_positive(const char* value, const char* flag) {
  const long parsed = std::atol(value);
  if (parsed <= 0) {
    std::fprintf(stderr, "error: %s must be a positive integer\n", flag);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

// Non-negative double flag value, rejecting trailing garbage (atof would
// silently read "1,000" as 1).
double parse_nonnegative(const char* value, const char* flag) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || parsed < 0.0) {
    std::fprintf(stderr, "error: %s must be a non-negative number\n", flag);
    std::exit(2);
  }
  return parsed;
}

std::string backend_for_variant(const std::string& s) {
  if (s != "base" && s != "base_ted" && s != "opt" && s != "opt_ted") {
    throw std::invalid_argument("unknown variant: " + s);
  }
  return "crosslight:" + s;
}

// The Table I model token of a --model number, for ScenarioSpec::models.
const char* model_token(int model_no) {
  switch (model_no) {
    case 1: return "lenet5";
    case 2: return "cnn_cifar10";
    case 3: return "cnn_stl10";
    case 4: return "siamese";
    default: throw std::invalid_argument("--model must be 1..4");
  }
}

int list_backends(xl::api::Session& session, bool json) {
  xl::api::JsonWriter writer;
  if (json) writer.begin_array("backends");
  for (const std::string& name : session.backends()) {
    const auto caps = session.backend(name).capabilities();
    if (json) {
      writer.begin_object();
      writer.field("name", name);
      writer.field("analytical", caps.analytical);
      writer.field("functional", caps.functional);
      writer.field("reference_only", caps.reference_only);
      writer.field("needs_network", caps.needs_network);
      writer.end_object();
    } else {
      std::printf("%-24s %s%s%s%s\n", name.c_str(),
                  caps.analytical ? "analytical " : "",
                  caps.functional ? "functional " : "",
                  caps.reference_only ? "reference-constants " : "",
                  caps.needs_network ? "(needs network+dataset)" : "");
    }
  }
  if (json) {
    writer.end_array();
    std::fputs(writer.finish().c_str(), stdout);
  }
  return 0;
}

// --- human-readable views over a ScenarioOutcome -----------------------------
// The runner executed the spec and already holds every structured result;
// these printers only format. --json instead prints outcome.json verbatim.

void print_functional(const xl::scenario::ScenarioSpec& spec,
                      const xl::scenario::ScenarioOutcome& outcome) {
  const std::string effects = spec.config.vdp.effective_effects().summary();
  for (const auto& row : outcome.functional) {
    const auto& fn = row.result.functional;
    std::printf("Table I proxy MLP on %s (effects: %s)\n", row.backend.c_str(),
                effects.c_str());
    std::printf("  float acc  : %.3f\n", outcome.float_accuracy);
    std::printf("  photonic   : %.3f (%zu samples)\n", fn.accuracy, fn.samples);
    std::printf("  GEMMs      : %zu (%zu dots, %zu MACs)\n",
                fn.stats.photonic_matmuls, fn.stats.photonic_dot_products,
                fn.stats.photonic_macs);
    if (row.result.has_report) {
      std::printf("  analytical : %s @ %.0f FPS, %.2f W, %.4f pJ/bit\n",
                  row.model.c_str(), row.result.report.perf.fps,
                  row.result.report.power.total_w(), row.result.epb_pj());
    }
  }
}

void print_dse(const xl::scenario::ScenarioSpec& spec,
               const xl::scenario::ScenarioOutcome& outcome, bool top_k_set) {
  using namespace xl;
  const core::DseResult& result = outcome.dse;
  const core::DsePoint& best = result.best();
  std::printf("DSE over %zu candidates (%zu admitted, %zu area-filtered): "
              "%zu evaluations, %zu cache hits\n\n",
              result.stats.grid_candidates,
              result.points.size() + result.rejected.size(),
              result.stats.area_filtered, result.stats.evaluations,
              result.stats.cache_hits);
  std::printf("%-2s %-4s %-4s %-4s %-4s %-12s %-12s %-9s %-9s %-12s\n", "", "N", "K",
              "n", "m", "avg FPS", "avg EPB pJ", "area mm2", "power W", "FPS/EPB");
  // Text default: top 10 (machine consumers get every point via --json).
  const std::size_t top_k = top_k_set ? spec.dse_top_k : 10;
  const std::size_t shown =
      (top_k > 0 && top_k < result.points.size()) ? top_k : result.points.size();
  for (std::size_t i = 0; i < shown; ++i) {
    const core::DsePoint& p = result.points[i];
    std::printf("%-2s %-4zu %-4zu %-4zu %-4zu %-12.0f %-12.4f %-9.1f %-9.1f %-12.3e\n",
                p.on_pareto ? "*" : "", p.conv_unit_size, p.fc_unit_size, p.conv_units,
                p.fc_units, p.avg_fps, p.avg_epb_pj, p.area_mm2, p.avg_power_w,
                p.fps_per_epb());
  }
  std::printf("\n(*) on the (fps, epb, area, power) Pareto front: %zu of %zu points\n",
              result.pareto.size(), result.points.size());
  if (!result.rejected.empty()) {
    std::printf("!!  %zu candidates rejected as degenerate (non-finite/non-positive "
                "metrics)\n",
                result.rejected.size());
  }
  std::printf("Best FPS/EPB: (N, K, n, m) = (%zu, %zu, %zu, %zu), area %.1f mm2\n",
              best.conv_unit_size, best.fc_unit_size, best.conv_units, best.fc_units,
              best.area_mm2);
}

void print_serve(const xl::scenario::ScenarioSpec& spec,
                 const xl::scenario::ScenarioOutcome& outcome) {
  using namespace xl;
  const serve::ServingStats& stats = outcome.serving_stats;
  std::printf("Serving table1-proxy-mlp on %zu shard(s), max batch %zu, "
              "deadline %.0f us\n",
              spec.serving.workers, spec.serving.max_batch, spec.serving.deadline_us);
  if (spec.tenants > 1) std::printf("  tenants    : %zu\n", spec.tenants);
  std::printf("  requests   : %zu (%zu samples, %zu micro-batches, mean %.2f "
              "rows/batch)\n",
              stats.requests, stats.samples, stats.batches, stats.mean_batch_rows());
  const auto [p50, p99] = serve::latency_p50_p99_us(stats.latency_us);
  std::printf("  latency    : p50 %.0f us, p99 %.0f us\n", p50, p99);
  std::printf("  throughput : %.0f samples/s (wall %.1f ms)\n", outcome.achieved_fps,
              outcome.wall_us * 1e-3);
  std::printf("  accuracy   : %.3f (photonic, effects: %s)\n", outcome.served_accuracy,
              spec.config.vdp.effective_effects().summary().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xl;

  // Flags layer over the scenario file (or the spec defaults): each *_set
  // bool records an explicit flag so only those keys override the file.
  std::string scenario_file;
  int model_no = 0;
  std::string backend_name;
  std::size_t arch_N = 0, arch_K = 0, arch_n = 0, arch_m = 0;
  int resolution_bits = 0;
  std::string effects_csv;
  bool effects_set = false;
  std::size_t samples = 0;
  std::size_t train_epochs = 0;
  bool json = false;
  bool run_schedule = false;
  bool list_only = false;
  bool dse_flag = false;
  bool dse_serial = false;
  std::size_t dse_top_k = 0;
  bool dse_top_k_set = false;
  double dse_budget = 0.0;
  bool dse_budget_set = false;
  bool serve_flag = false;
  std::size_t serve_workers = 0;
  std::size_t serve_max_batch = 0;
  double serve_deadline_us = -1.0;
  std::size_t serve_requests = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    try {
      if (arg == "--scenario") {
        scenario_file = next();
      } else if (arg == "--model") {
        model_no = std::atoi(next());
        (void)model_token(model_no);  // Validate eagerly.
      } else if (arg == "--backend") {
        backend_name = next();
      } else if (arg == "--variant") {
        backend_name = backend_for_variant(next());
      } else if (arg == "--N") {
        arch_N = parse_positive(next(), "--N");
      } else if (arg == "--K") {
        arch_K = parse_positive(next(), "--K");
      } else if (arg == "--n") {
        arch_n = parse_positive(next(), "--n");
      } else if (arg == "--m") {
        arch_m = parse_positive(next(), "--m");
      } else if (arg == "--resolution") {
        resolution_bits = static_cast<int>(parse_positive(next(), "--resolution"));
      } else if (arg == "--effects") {
        effects_csv = next();
        (void)core::EffectConfig::parse(effects_csv);  // Validate eagerly.
        effects_set = true;
      } else if (arg == "--samples") {
        samples = parse_positive(next(), "--samples");
      } else if (arg == "--train-epochs") {
        train_epochs = parse_positive(next(), "--train-epochs");
      } else if (arg == "--dse") {
        dse_flag = true;
      } else if (arg == "--top-k") {
        dse_top_k = static_cast<std::size_t>(std::atoi(next()));
        dse_top_k_set = true;
      } else if (arg == "--budget") {
        dse_budget = parse_nonnegative(next(), "--budget");
        dse_budget_set = true;
      } else if (arg == "--serial") {
        dse_serial = true;
      } else if (arg == "--serve") {
        serve_flag = true;
      } else if (arg == "--workers") {
        serve_workers = parse_positive(next(), "--workers");
      } else if (arg == "--max-batch") {
        serve_max_batch = parse_positive(next(), "--max-batch");
      } else if (arg == "--deadline-us") {
        serve_deadline_us = parse_nonnegative(next(), "--deadline-us");
      } else if (arg == "--requests") {
        serve_requests = parse_positive(next(), "--requests");
      } else if (arg == "--schedule") {
        run_schedule = true;
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--list-backends") {
        list_only = true;
      } else if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else {
        // Never silently ignore an argument: name the offender.
        std::fprintf(stderr, "error: unknown flag: %s\n", arg.c_str());
        usage();
        return 2;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  }

  try {
    // Base spec: the scenario file, or pure defaults (the legacy flag-only
    // invocation is just an override stack on an empty scenario).
    scenario::ScenarioSpec spec;
    if (!scenario_file.empty()) {
      spec = scenario::ScenarioSpec::load(scenario::scenario_path(scenario_file));
    }

    // Layer the explicit flags over the file.
    if (model_no != 0) spec.models = {model_token(model_no)};
    if (!backend_name.empty()) spec.backends = {backend_name};
    if (arch_N != 0) spec.config.architecture.conv_unit_size = arch_N;
    if (arch_K != 0) spec.config.architecture.fc_unit_size = arch_K;
    if (arch_n != 0) spec.config.architecture.conv_units = arch_n;
    if (arch_m != 0) spec.config.architecture.fc_units = arch_m;
    if (resolution_bits != 0) {
      // Drives both views: the analytical DAC cap and the functional
      // datapath quantizers.
      spec.config.architecture.resolution_bits = resolution_bits;
      spec.config.vdp.resolution_bits = resolution_bits;
    }
    if (effects_set) spec.config.vdp.effects = core::EffectConfig::parse(effects_csv);
    if (samples != 0) spec.config.functional_samples = samples;
    if (train_epochs != 0) spec.train_epochs = train_epochs;
    if (dse_flag) spec.mode = scenario::Mode::kDse;
    if (dse_top_k_set) spec.dse_top_k = dse_top_k;
    if (dse_budget_set) spec.config.dse.max_area_mm2 = dse_budget;
    if (dse_serial) spec.dse_serial = true;
    if (serve_flag) spec.mode = scenario::Mode::kServe;
    if (serve_workers != 0) spec.serving.workers = serve_workers;
    if (serve_max_batch != 0) spec.serving.max_batch = serve_max_batch;
    if (serve_deadline_us >= 0.0) spec.serving.deadline_us = serve_deadline_us;
    if (serve_requests != 0) spec.arrivals.requests = serve_requests;

    const std::string backend = spec.backends.front();
    if (spec.mode == scenario::Mode::kDse) {
      // The DSE grid enumerates CrossLight organizations; the selected
      // crosslight:* backend picks the variant the sweep explores.
      if (backend.rfind("crosslight:", 0) != 0) {
        std::fprintf(stderr, "error: --dse requires a crosslight:* backend\n");
        return 2;
      }
      spec.config.architecture.variant = scenario::variant_from_name(
          backend.substr(std::strlen("crosslight:")));
    }
    // Re-lower the architecture overrides into the sweep (parse() did this
    // for file values; flags layered on top must reach the same places).
    if (spec.config.dse.variants.empty()) {
      spec.config.dse.variant = spec.config.architecture.variant;
    }
    spec.config.dse.base = spec.config.architecture;

    api::Session session(spec.config);
    if (list_only) return list_backends(session, json);

    // The functional path is selected by a backend that executes real
    // tensors, exactly as before the scenario layer existed.
    if (spec.mode == scenario::Mode::kEvaluate &&
        session.backend(backend).capabilities().needs_network) {
      spec.mode = scenario::Mode::kFunctional;
    }

    if (spec.mode != scenario::Mode::kEvaluate) {
      scenario::ScenarioRunner runner(std::move(spec));
      const scenario::ScenarioOutcome outcome = runner.run();
      if (json) {
        std::fputs(outcome.json.c_str(), stdout);
        return 0;
      }
      switch (outcome.mode) {
        case scenario::Mode::kFunctional:
          print_functional(runner.spec(), outcome);
          break;
        case scenario::Mode::kDse:
          print_dse(runner.spec(), outcome, dse_top_k_set);
          break;
        case scenario::Mode::kServe:
          print_serve(runner.spec(), outcome);
          break;
        case scenario::Mode::kEvaluate:
          break;  // Unreachable: handled below.
      }
      return 0;
    }

    // Evaluate mode. Scenario files (and multi-model/-backend selections)
    // route through the runner's normalized report; the legacy single-model
    // flag invocation keeps its detailed report (with --schedule).
    const std::vector<dnn::ModelSpec> zoo = spec.model_zoo();
    if (!scenario_file.empty() || zoo.size() != 1 || spec.backends.size() != 1) {
      if (run_schedule) {
        std::fprintf(stderr,
                     "error: --schedule needs a single model and backend\n");
        return 2;
      }
      scenario::ScenarioRunner runner(std::move(spec));
      const scenario::ScenarioOutcome outcome = runner.run();
      if (json) {
        std::fputs(outcome.json.c_str(), stdout);
      } else {
        for (const auto& row : outcome.evals) {
          std::printf("%-22s %-28s %10.4f pJ/bit %10.3f kFPS/W\n",
                      row.backend.c_str(), row.model.c_str(), row.result.epb_pj(),
                      row.result.kfps_per_watt());
        }
      }
      return 0;
    }

    // Pool utilization comes from the event-driven scheduler, which models
    // the CrossLight organization only — reject the combination before any
    // evaluation work.
    const bool is_crosslight = backend.rfind("crosslight:", 0) == 0;
    if (run_schedule && !is_crosslight) {
      std::fprintf(stderr, "error: --schedule requires a crosslight:* backend\n");
      return 2;
    }

    const dnn::ModelSpec& model = zoo.front();
    const api::EvalResult result = session.evaluate(backend, model);

    double utilization_conv = 0.0;
    double utilization_fc = 0.0;
    if (run_schedule) {
      core::ArchitectureConfig cfg = spec.config.architecture;
      cfg.variant =
          static_cast<api::AnalyticalBackend&>(session.backend(backend)).variant();
      const core::CrossLightAccelerator accel(cfg);
      const auto schedule = core::EventScheduler(cfg).run(accel.map(model));
      utilization_conv = schedule.conv_pool_utilization;
      utilization_fc = schedule.fc_pool_utilization;
    }

    if (!result.has_report) {
      // Reference-only backend: literature constants, no per-model report.
      if (json) {
        api::JsonWriter writer;
        writer.field("backend", backend);
        writer.field("platform", result.summary.accelerator);
        writer.field("avg_epb_pj_per_bit", result.summary.avg_epb_pj);
        writer.field("avg_kfps_per_watt", result.summary.avg_kfps_per_watt);
        writer.field("power_w", result.summary.avg_power_w);
        std::fputs(writer.finish().c_str(), stdout);
      } else {
        std::printf("%s (%s): literature constants\n", backend.c_str(),
                    result.summary.accelerator.c_str());
        std::printf("  power      : %.2f W\n", result.summary.avg_power_w);
        std::printf("  EPB        : %.4f pJ/bit\n", result.summary.avg_epb_pj);
        std::printf("  kFPS/W     : %.3f\n", result.summary.avg_kfps_per_watt);
      }
      return 0;
    }

    const auto& report = result.report;
    const auto& cfg = spec.config.architecture;
    if (json) {
      api::JsonWriter writer;
      writer.field("model", model.name);
      writer.field("backend", backend);
      writer.field("accelerator", report.accelerator);
      if (is_crosslight) {
        // Baselines carry their own organization (BaselineParams); the
        // session's (N, K, n, m) only describes crosslight:* backends.
        writer.begin_object("config");
        writer.field("N", cfg.conv_unit_size);
        writer.field("K", cfg.fc_unit_size);
        writer.field("n", cfg.conv_units);
        writer.field("m", cfg.fc_units);
        writer.field("resolution_bits", report.resolution_bits);
        writer.end_object();
      } else {
        writer.field("resolution_bits", report.resolution_bits);
      }
      writer.field("fps", report.perf.fps);
      writer.field("frame_latency_us", report.perf.frame_latency_us);
      writer.field("power_w", report.power.total_w());
      writer.begin_object("power_breakdown_mw");
      writer.field("laser", report.power.laser_mw);
      writer.field("to_tuning", report.power.to_tuning_mw);
      writer.field("eo_tuning", report.power.eo_tuning_mw);
      writer.field("pd", report.power.pd_mw);
      writer.field("tia", report.power.tia_mw);
      writer.field("vcsel", report.power.vcsel_mw);
      writer.field("adc_dac", report.power.adc_dac_mw);
      writer.field("control", report.power.control_mw);
      writer.end_object();
      writer.field("area_mm2", report.area_mm2);
      writer.field("epb_pj_per_bit", report.epb_pj());
      writer.field("kfps_per_watt", report.kfps_per_watt());
      if (run_schedule) {
        writer.field("conv_pool_utilization", utilization_conv);
        writer.field("fc_pool_utilization", utilization_fc);
      }
      std::fputs(writer.finish().c_str(), stdout);
    } else {
      if (is_crosslight) {
        std::printf("%s on %s (N=%zu K=%zu n=%zu m=%zu, %d-bit)\n", model.name.c_str(),
                    report.accelerator.c_str(), cfg.conv_unit_size, cfg.fc_unit_size,
                    cfg.conv_units, cfg.fc_units, report.resolution_bits);
      } else {
        std::printf("%s on %s (%d-bit)\n", model.name.c_str(),
                    report.accelerator.c_str(), report.resolution_bits);
      }
      std::printf("  FPS        : %.0f\n", report.perf.fps);
      std::printf("  latency    : %.3f us\n", report.perf.frame_latency_us);
      std::printf("  power      : %.2f W\n", report.power.total_w());
      std::printf("  area       : %.1f mm2\n", report.area_mm2);
      std::printf("  EPB        : %.4f pJ/bit\n", report.epb_pj());
      std::printf("  kFPS/W     : %.3f\n", report.kfps_per_watt());
      if (run_schedule) {
        std::printf("  utilization: conv %.1f%%, fc %.1f%% (event-driven)\n",
                    100.0 * utilization_conv, 100.0 * utilization_fc);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
