// Performance and power model tests, including the Section V-D variant
// ordering (Cross_base > Cross_base_TED > Cross_opt > Cross_opt_TED).
#include <gtest/gtest.h>

#include "core/accelerator.hpp"
#include "core/performance.hpp"
#include "core/power.hpp"
#include "dnn/models.hpp"

namespace xl::core {
namespace {

TEST(Performance, CycleMatchesTransceiverSymbolRate) {
  const ArchitectureConfig cfg = best_config();
  // 16 bits / 56 Gb/s = 0.2857 ns.
  EXPECT_NEAR(vdp_cycle_ns(cfg), 16.0 / 56.0, 1e-9);
}

TEST(Performance, FillIncludesEoAndOeChain) {
  const ArchitectureConfig cfg = best_config();
  const double fill = pipeline_fill_ns(cfg);
  EXPECT_GT(fill, cfg.devices.eo_tuning_latency_ns);
  EXPECT_LT(fill, 100.0);
}

TEST(Performance, FpsDecreasesWithModelSize) {
  const CrossLightAccelerator accel(best_config());
  const auto models = xl::dnn::table1_models();
  double prev_fps = 1e18;
  for (const auto& model : models) {
    const auto report = accel.evaluate(model);
    EXPECT_LT(report.perf.fps, prev_fps) << model.name;
    EXPECT_GT(report.perf.fps, 0.0);
    prev_fps = report.perf.fps;
  }
}

TEST(Performance, MoreUnitsMeanMoreFps) {
  ArchitectureConfig small_cfg = best_config();
  small_cfg.conv_units = 50;
  small_cfg.fc_units = 30;
  const auto model = xl::dnn::cnn_cifar10_spec();
  const double small_fps = CrossLightAccelerator(small_cfg).evaluate(model).perf.fps;
  const double big_fps = CrossLightAccelerator(best_config()).evaluate(model).perf.fps;
  EXPECT_GT(big_fps, small_fps);
}

TEST(Performance, LatencyConsistentWithFps) {
  const CrossLightAccelerator accel(best_config());
  const auto report = accel.evaluate(xl::dnn::lenet5_spec());
  EXPECT_NEAR(report.perf.fps * report.perf.frame_latency_us, 1e6, 1.0);
}

TEST(Power, BreakdownTotalsSum) {
  PowerBreakdown p;
  p.laser_mw = 1.0;
  p.to_tuning_mw = 2.0;
  p.eo_tuning_mw = 3.0;
  p.pd_mw = 4.0;
  p.tia_mw = 5.0;
  p.vcsel_mw = 6.0;
  p.adc_dac_mw = 7.0;
  p.control_mw = 8.0;
  EXPECT_DOUBLE_EQ(p.total_mw(), 36.0);
  EXPECT_DOUBLE_EQ(p.total_w(), 0.036);
}

TEST(Power, AllComponentsPositiveForBestConfig) {
  const CrossLightAccelerator accel(best_config());
  const auto report = accel.evaluate(xl::dnn::cnn_cifar10_spec());
  EXPECT_GT(report.power.laser_mw, 0.0);
  EXPECT_GT(report.power.to_tuning_mw, 0.0);
  EXPECT_GT(report.power.eo_tuning_mw, 0.0);
  EXPECT_GT(report.power.pd_mw, 0.0);
  EXPECT_GT(report.power.tia_mw, 0.0);
  EXPECT_GT(report.power.vcsel_mw, 0.0);
  EXPECT_GT(report.power.adc_dac_mw, 0.0);
  EXPECT_GT(report.power.control_mw, 0.0);
}

TEST(Power, VariantOrderingMatchesPaper) {
  // Fig. 7 / Table III: base > base_TED > opt > opt_TED.
  const auto models = xl::dnn::table1_models();
  auto avg_power = [&](Variant v) {
    const CrossLightAccelerator accel(variant_config(v));
    return summarize(accel.evaluate_all(models)).avg_power_w;
  };
  const double base = avg_power(Variant::kBase);
  const double base_ted = avg_power(Variant::kBaseTed);
  const double opt = avg_power(Variant::kOpt);
  const double opt_ted = avg_power(Variant::kOptTed);
  EXPECT_GT(base, base_ted);
  EXPECT_GT(base_ted, opt);
  EXPECT_GT(opt, opt_ted);
  // Rough factor: the paper reports base ~4.9x opt_TED; accept 2x-10x.
  EXPECT_GT(base / opt_ted, 2.0);
  EXPECT_LT(base / opt_ted, 10.0);
}

TEST(Power, TedTrimBeatsWorstCaseProvisioning) {
  ArchitectureConfig ted_cfg = best_config();
  ted_cfg.variant = Variant::kOptTed;
  ArchitectureConfig naive_cfg = best_config();
  naive_cfg.variant = Variant::kOpt;
  EXPECT_LT(total_to_tuning_power_mw(ted_cfg), total_to_tuning_power_mw(naive_cfg));
}

TEST(Power, OptimizedMrsCutTuningPower) {
  ArchitectureConfig opt_cfg = best_config();
  opt_cfg.variant = Variant::kOptTed;
  ArchitectureConfig base_cfg = best_config();
  base_cfg.variant = Variant::kBaseTed;
  const double opt_power = total_to_tuning_power_mw(opt_cfg);
  const double base_power = total_to_tuning_power_mw(base_cfg);
  // Drift budget ratio is 7.1/2.1 ~ 3.4; tuning power should scale with it.
  EXPECT_GT(base_power / opt_power, 2.0);
  EXPECT_LT(base_power / opt_power, 5.0);
}

TEST(Power, EoImprintEnergyFollowsTableTwo) {
  // Every pass re-imprints an arm's two banks over fast EO tuning:
  // 4 uW/nm x 0.5 nm x 20 ns = 0.04 pJ per MR, so 2 x 15 MRs cost 1.2 pJ.
  // 1000 passes per 1 us frame then dissipate 1.2 nJ / 1 us = 1.2 mW.
  const ArchitectureConfig cfg = best_config();
  ASSERT_EQ(cfg.mrs_per_bank, 15U);
  ModelMapping mapping;
  mapping.total_passes = 1000;
  PerformanceReport perf;
  perf.frame_latency_us = 1.0;
  EXPECT_NEAR(evaluate_power(mapping, cfg, perf).eo_tuning_mw, 1.2, 1e-12);
}

TEST(Power, TrimPowerFollowsFpvDrift) {
  // The static trim solves |drift| x 2 pi / FSR targets: more drift costs
  // more power, and zero drift leaves nothing to trim. Without TED, runtime
  // weights also ride on TO tuning, which holds 0.5 nm x 27.5 mW / 18 nm
  // per MR whatever the drift.
  for (const Variant v : {Variant::kOptTed, Variant::kOpt}) {
    SCOPED_TRACE(variant_name(v));
    ArchitectureConfig cfg = best_config();
    cfg.variant = v;
    const double nominal = total_to_tuning_power_mw(cfg);
    cfg.devices.fpv_drift_optimized_nm *= 2.0;
    EXPECT_GT(total_to_tuning_power_mw(cfg), nominal);
    cfg.devices.fpv_drift_optimized_nm = 0.0;
    const double weight_hold_mw =
        variant_uses_ted(v)
            ? 0.0
            : 0.5 * 27.5 / 18.0 * static_cast<double>(cfg.total_mrs());
    EXPECT_NEAR(total_to_tuning_power_mw(cfg), weight_hold_mw, 1e-9);
  }
}

TEST(Power, WavelengthReuseBoundsLaserPower) {
  // An FC unit (K=150) reuses the 15-wavelength comb: its laser power must
  // be far below a hypothetical one-wavelength-per-element unit. Compare
  // against a unit whose bank equals the vector size (no decomposition).
  ArchitectureConfig cfg = best_config();
  const double with_reuse = unit_laser_power_mw(cfg, 150);
  // Laser sharing penalty alone: 150 wavelengths vs 15 wavelengths = 10 dB.
  const double small_unit = unit_laser_power_mw(cfg, 15);
  EXPECT_LT(with_reuse, 10.0 * 10.0 * small_unit);
  EXPECT_GT(with_reuse, small_unit);  // Splitting across arms still costs.
}

TEST(Power, EpbAndKfpsWConsistency) {
  AcceleratorReport r;
  r.perf.fps = 1e6;
  r.perf.frame_latency_us = 1.0;
  r.power.laser_mw = 10000.0;  // 10 W.
  r.resolution_bits = 16;
  r.macs_per_frame = 1000;
  // EPB = 10 W * 1 us / (2*1000*16 bits) = 1e-5 J / 32000 = 312.5 pJ/bit.
  EXPECT_NEAR(r.epb_pj(), 312.5, 1e-6);
  EXPECT_NEAR(r.kfps_per_watt(), 100.0, 1e-9);
}

TEST(Power, SummarizeAverages) {
  AcceleratorReport a;
  a.accelerator = "X";
  a.perf.fps = 1000.0;
  a.perf.frame_latency_us = 1000.0;
  a.power.laser_mw = 1000.0;
  a.resolution_bits = 16;
  a.macs_per_frame = 100;
  AcceleratorReport b = a;
  b.power.laser_mw = 3000.0;
  const AcceleratorSummary s = summarize({a, b});
  EXPECT_DOUBLE_EQ(s.avg_power_w, 2.0);
  EXPECT_THROW((void)summarize({}), std::invalid_argument);
}

}  // namespace
}  // namespace xl::core
