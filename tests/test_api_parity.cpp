// Parity: the api::Session facade must reproduce the legacy entry points
// bit-for-bit on the Table I model zoo — CrossLightAccelerator::evaluate for
// the four variants, evaluate_baseline for DEAP-CNN/Holylight, and the
// functional PhotonicInferenceEngine path.
#include <gtest/gtest.h>

#include "api/api.hpp"
#include "baselines/deap_cnn.hpp"
#include "baselines/holylight.hpp"
#include "core/accelerator.hpp"
#include "core/dse_engine.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/activations.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/models.hpp"
#include "dnn/network.hpp"
#include "dnn/pooling.hpp"
#include "dnn/reshape.hpp"
#include "numerics/rng.hpp"

namespace {

using namespace xl;

// Bit-for-bit: EXPECT_EQ on doubles is exact equality, no tolerance.
void expect_reports_identical(const core::AcceleratorReport& a,
                              const core::AcceleratorReport& b) {
  EXPECT_EQ(a.accelerator, b.accelerator);
  EXPECT_EQ(a.model, b.model);
  EXPECT_EQ(a.perf.cycle_ns, b.perf.cycle_ns);
  EXPECT_EQ(a.perf.batch, b.perf.batch);
  EXPECT_EQ(a.perf.frame_latency_us, b.perf.frame_latency_us);
  EXPECT_EQ(a.perf.fps, b.perf.fps);
  EXPECT_EQ(a.power.laser_mw, b.power.laser_mw);
  EXPECT_EQ(a.power.to_tuning_mw, b.power.to_tuning_mw);
  EXPECT_EQ(a.power.eo_tuning_mw, b.power.eo_tuning_mw);
  EXPECT_EQ(a.power.pd_mw, b.power.pd_mw);
  EXPECT_EQ(a.power.tia_mw, b.power.tia_mw);
  EXPECT_EQ(a.power.vcsel_mw, b.power.vcsel_mw);
  EXPECT_EQ(a.power.adc_dac_mw, b.power.adc_dac_mw);
  EXPECT_EQ(a.power.control_mw, b.power.control_mw);
  EXPECT_EQ(a.area_mm2, b.area_mm2);
  EXPECT_EQ(a.resolution_bits, b.resolution_bits);
  EXPECT_EQ(a.macs_per_frame, b.macs_per_frame);
  EXPECT_EQ(a.epb_pj(), b.epb_pj());
  EXPECT_EQ(a.kfps_per_watt(), b.kfps_per_watt());
}

TEST(ApiParity, AnalyticalBackendMatchesCrossLightAcceleratorBitForBit) {
  api::Session session;
  for (core::Variant v : {core::Variant::kBase, core::Variant::kBaseTed,
                          core::Variant::kOpt, core::Variant::kOptTed}) {
    const core::CrossLightAccelerator direct(core::variant_config(v));
    const std::string backend = api::AnalyticalBackend::registry_key(v);
    for (const auto& model : dnn::table1_models()) {
      const api::EvalResult via_api = session.evaluate(backend, model);
      ASSERT_TRUE(via_api.has_report);
      expect_reports_identical(via_api.report, direct.evaluate(model));
    }
  }
}

TEST(ApiParity, BaselineBackendMatchesEvaluateBaselineBitForBit) {
  api::Session session;
  const struct {
    const char* backend;
    baselines::BaselineParams params;
  } cases[] = {{"deap_cnn", baselines::deap_cnn_params()},
               {"holylight", baselines::holylight_params()}};
  for (const auto& c : cases) {
    for (const auto& model : dnn::table1_models()) {
      const api::EvalResult via_api = session.evaluate(c.backend, model);
      ASSERT_TRUE(via_api.has_report);
      expect_reports_identical(via_api.report,
                               baselines::evaluate_baseline(c.params, model));
    }
  }
}

TEST(ApiParity, SessionSummarizeMatchesCoreSummarize) {
  api::Session session;
  const auto models = dnn::table1_models();
  const core::CrossLightAccelerator direct(core::variant_config(core::Variant::kOptTed));
  const auto expected = core::summarize(direct.evaluate_all(models));
  const auto actual = session.summarize("crosslight:opt_ted", models);
  EXPECT_EQ(actual.accelerator, expected.accelerator);
  EXPECT_EQ(actual.avg_epb_pj, expected.avg_epb_pj);
  EXPECT_EQ(actual.avg_kfps_per_watt, expected.avg_kfps_per_watt);
  EXPECT_EQ(actual.avg_power_w, expected.avg_power_w);
  EXPECT_EQ(actual.area_mm2, expected.area_mm2);
}

TEST(ApiParity, SessionConfigOverridesReachTheAccelerator) {
  api::SimConfig config;
  config.architecture.conv_unit_size = 30;
  config.architecture.fc_unit_size = 200;
  api::Session session(config);

  core::ArchitectureConfig direct_cfg = config.architecture;
  direct_cfg.variant = core::Variant::kOpt;
  const core::CrossLightAccelerator direct(direct_cfg);

  const auto model = dnn::cnn_stl10_spec();
  expect_reports_identical(session.evaluate("crosslight:opt", model).report,
                           direct.evaluate(model));
}

TEST(ApiParity, SessionDseMatchesCoreDse) {
  core::DseSweep sweep;
  sweep.conv_unit_sizes = {15, 20};
  sweep.fc_unit_sizes = {100};
  sweep.conv_unit_counts = {100};
  sweep.fc_unit_counts = {60};
  const std::vector<dnn::ModelSpec> models{dnn::lenet5_spec()};

  const auto direct = core::DseEngine{}.run(sweep, models).points;
  api::Session session;
  const auto via_api = session.run_dse(sweep, models).points;
  ASSERT_EQ(via_api.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(via_api[i].conv_unit_size, direct[i].conv_unit_size);
    EXPECT_EQ(via_api[i].fc_unit_size, direct[i].fc_unit_size);
    EXPECT_EQ(via_api[i].avg_fps, direct[i].avg_fps);
    EXPECT_EQ(via_api[i].avg_epb_pj, direct[i].avg_epb_pj);
    EXPECT_EQ(via_api[i].avg_power_w, direct[i].avg_power_w);
    EXPECT_EQ(via_api[i].area_mm2, direct[i].area_mm2);
  }
}

TEST(ApiParity, SessionDseMemoPersistsAcrossCalls) {
  core::DseSweep sweep;
  sweep.conv_unit_sizes = {15, 20};
  sweep.fc_unit_sizes = {100};
  sweep.conv_unit_counts = {100};
  sweep.fc_unit_counts = {60};
  const std::vector<dnn::ModelSpec> models{dnn::lenet5_spec()};
  api::Session session;
  const auto first = session.run_dse(sweep, models);
  EXPECT_GT(first.stats.evaluations, 0u);
  const auto second = session.run_dse(sweep, models);
  EXPECT_EQ(second.stats.evaluations, 0u) << "session memo must persist";
  // set_config invalidates the memo.
  session.set_config(session.config());
  const auto third = session.run_dse(sweep, models);
  EXPECT_EQ(third.stats.evaluations, first.stats.evaluations);
}

TEST(ApiParity, SessionDseRejectsEffectAxes) {
  core::DseSweep sweep;
  sweep.effects = {core::EffectConfig{}, core::EffectConfig{}};
  api::Session session;
  EXPECT_THROW((void)session.run_dse(sweep, {dnn::lenet5_spec()}),
               std::invalid_argument);
}

TEST(ApiParity, FunctionalBackendMatchesPhotonicInferenceEngine) {
  numerics::Rng rng(21);
  dnn::Network net;
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{1, 4, 3, 1, 1}, rng);
  net.emplace<dnn::ReLU>();
  net.emplace<dnn::MaxPool2d>(2);
  net.emplace<dnn::Flatten>();
  net.emplace<dnn::Dense>(4 * 5 * 5, 4, rng);

  dnn::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 10;
  spec.width = 10;
  spec.channels = 1;
  spec.seed = 33;
  const dnn::Dataset data = dnn::generate_classification(spec, 12, 1);

  api::SimConfig config;
  config.functional_samples = 12;
  config.eval_batch_size = 4;
  config.track_layer_error = true;
  api::Session session(config);
  const api::EvalResult via_api =
      session.evaluate_functional("functional", dnn::lenet5_spec(), net, data);

  core::PhotonicInferenceEngine direct(net, config.vdp);
  direct.set_eval_batch_size(4);
  direct.set_track_layer_error(true);
  const double direct_acc = direct.evaluate_accuracy(data, 12);

  ASSERT_TRUE(via_api.functional.populated);
  EXPECT_EQ(via_api.functional.accuracy, direct_acc);
  EXPECT_EQ(via_api.functional.samples, 12u);
  EXPECT_EQ(via_api.functional.stats.photonic_dot_products,
            direct.stats().photonic_dot_products);
  EXPECT_EQ(via_api.functional.stats.photonic_macs, direct.stats().photonic_macs);
  EXPECT_EQ(via_api.functional.stats.max_abs_layer_error,
            direct.stats().max_abs_layer_error);

  // The analytical workload shape rides along in the same result.
  ASSERT_TRUE(via_api.has_report);
  const core::CrossLightAccelerator accel(core::best_config());
  expect_reports_identical(via_api.report, accel.evaluate(dnn::lenet5_spec()));
}

}  // namespace
