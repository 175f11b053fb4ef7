// Composable non-ideality pipeline tests.
//
// The contracts this file pins:
//   1. Effects off is *bit-identical* to the pre-pipeline datapath — the
//      golden values below were captured from the engine before the effect
//      refactor (same seeds, same shapes). The D-row contract (per-chunk
//      transmission differences, see photonics/bank_lut.hpp) left them
//      unchanged: its few-ulp partial-sum changes vanish in the 16-bit
//      partial-sum requantization here. The all-effects values are pinned
//      too, beside the values from before the PD-noise key split.
//   2. Effects on is deterministic: fixed seeds give identical results for
//      scalar vs. batched execution and for any executor width.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/effect_pipeline.hpp"
#include "core/photonic_inference.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/activations.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/models.hpp"
#include "dnn/pooling.hpp"
#include "dnn/reshape.hpp"
#include "exec/task_pool.hpp"
#include "numerics/gemm.hpp"
#include "numerics/rng.hpp"

namespace {

using namespace xl;

numerics::Matrix random_matrix(std::size_t rows, std::size_t cols, numerics::Rng& rng) {
  numerics::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

core::VdpSimOptions all_effects_options() {
  core::VdpSimOptions opts;
  opts.effects.thermal = true;
  opts.effects.fpv = true;
  opts.effects.noise = true;
  opts.effects.seed = 1234;
  return opts;
}

TEST(EffectPipeline, EffectsOffMatmulBitIdenticalToPreRefactorGolden) {
  // Captured from the engine at PR 2 head (before the effect pipeline):
  // seeds rng(7), X(3x40) then W(4x40) uniform in [-1, 1], default options.
  numerics::Rng rng(7);
  const numerics::Matrix x = random_matrix(3, 40, rng);
  const numerics::Matrix w = random_matrix(4, 40, rng);
  core::BatchedVdpEngine engine{core::VdpSimOptions{}};
  const numerics::Matrix y = engine.photonic_matmul(x, w);
  const double golden[3][4] = {
      {2.8241125839241583, 2.4826750717601316, -1.4698497265996857,
       0.39518786856223853},
      {-3.3378742771143437, -5.7855172514657038, 0.43628015045871121,
       -5.6254618855842375},
      {0.32335080101971669, 0.41853424955307428, 2.9959077101070908,
       3.1285313176026643},
  };
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(y(r, c), golden[r][c]) << "element (" << r << ", " << c << ")";
    }
  }
}

TEST(EffectPipeline, EffectsOffInferBatchBitIdenticalToPreRefactorGolden) {
  // Same tiny CNN + synthetic task as test_photonic_inference (seeds 33/21),
  // logits captured before the effect refactor.
  dnn::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 10;
  spec.width = 10;
  spec.channels = 1;
  spec.seed = 33;
  const dnn::Dataset data = dnn::generate_classification(spec, 4, 2);
  numerics::Rng rng(21);
  dnn::Network net;
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{1, 4, 3, 1, 1}, rng);
  net.emplace<dnn::ReLU>();
  net.emplace<dnn::MaxPool2d>(2);
  net.emplace<dnn::Flatten>();
  net.emplace<dnn::Dense>(4 * 5 * 5, 4, rng);
  core::PhotonicInferenceEngine engine(net);
  const dnn::Tensor logits = engine.infer_batch(dnn::batch_images(data, 0, 4));
  const float golden[4][4] = {
      {-0.831402004f, 0.470994562f, -0.169825673f, -0.4394086f},
      {-0.974170446f, 0.476550937f, -0.238805696f, -0.114897177f},
      {-0.960114181f, 0.337460935f, -0.120016083f, -0.239315882f},
      {-1.02608156f, 0.589127779f, -0.365224391f, -0.141331509f},
  };
  for (std::size_t b = 0; b < 4; ++b) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(logits.at2(b, c), golden[b][c])
          << "logit (" << b << ", " << c << ")";
    }
  }
}

TEST(EffectPipeline, AllEffectsMatmulPinnedAcrossTheNoiseKeyChange) {
  // Same operands as the effects-off golden, every effect on, 3 us of
  // thermal drift. `golden` holds the D-row contract's values with the split
  // PD-noise key; `keyed_on_operand_chain` the values from before it (noise
  // keyed on one hash chain over every operand, arm sums in the old
  // multiply order). Only the noise draws differ, so each old value must sit
  // within 6 sigma of the difference of two independent draws.
  numerics::Rng rng(7);
  const numerics::Matrix x = random_matrix(3, 40, rng);
  const numerics::Matrix w = random_matrix(4, 40, rng);
  core::BatchedVdpEngine engine(all_effects_options());
  engine.advance_effects(3.0);
  const numerics::Matrix y = engine.photonic_matmul(x, w);
  const double golden[3][4] = {
      {2.3762415529677159, 2.0835531234766895, -1.309503849215274,
       0.16727011268352179},
      {-3.0544859415659604, -5.7898388051513763, 0.57027078774960827,
       -5.2318721934618475},
      {0.079021741025240372, 0.023600169137794464, 2.5032446774368302,
       2.5282337622663951},
  };
  const double keyed_on_operand_chain[3][4] = {
      {2.5265655587420843, 1.62684124736358, -1.5464552511580472,
       0.3542544716662262},
      {-2.7779914368326435, -5.8244857441830504, 0.75319779172693846,
       -5.4945423200471746},
      {0.33758498649687207, -0.086140617352949977, 2.5479508062914715,
       2.8571710998254698},
  };
  const numerics::Vector sx = numerics::row_abs_max(x);
  const numerics::Vector sw = numerics::row_abs_max(w);
  const double noise_std = engine.effects().noise_std();
  ASSERT_GT(noise_std, 0.0);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(y(r, c), golden[r][c]) << "element (" << r << ", " << c << ")";
      // Per-output noise: sqrt(2 len) * noise_std per chunk, summed in
      // quadrature over the 40 elements, in output units.
      const double sigma = std::sqrt(2.0) * noise_std * std::sqrt(2.0 * 40.0) * sx[r] * sw[c];
      EXPECT_NEAR(y(r, c), keyed_on_operand_chain[r][c], 6.0 * sigma)
          << "element (" << r << ", " << c << ")";
    }
  }
}

TEST(EffectPipeline, ScalarAndBatchedBitIdenticalUnderAllEffects) {
  const core::VdpSimOptions opts = all_effects_options();
  numerics::Rng rng(11);
  const numerics::Matrix x = random_matrix(5, 33, rng);
  const numerics::Matrix w = random_matrix(6, 33, rng);

  core::BatchedVdpEngine engine(opts);
  core::VdpSimulator sim(opts);
  // Same simulated time on both pipelines: thermal drift is warmed in.
  engine.advance_effects(3.0);
  sim.effects().advance(3.0);

  ASSERT_NE(engine.effects().vdp_effects(), nullptr);
  const numerics::Matrix y = engine.photonic_matmul(x, w);
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t o = 0; o < w.rows(); ++o) {
      EXPECT_EQ(y(b, o), sim.dot(x.row(b), w.row(o)))
          << "dot (" << b << ", " << o << ")";
    }
  }
}

TEST(EffectPipeline, FixedSeedDeterministicAcrossThreadCounts) {
  const core::VdpSimOptions opts = all_effects_options();
  numerics::Rng rng(12);
  const numerics::Matrix x = random_matrix(48, 40, rng);
  const numerics::Matrix w = random_matrix(40, 40, rng);

  numerics::Matrix y1;
  {
    const exec::ScopedPool one_lane(1);
    core::BatchedVdpEngine serial(opts);
    serial.advance_effects(2.0);
    y1 = serial.photonic_matmul(x, w);
  }
  numerics::Matrix y4;
  {
    const exec::ScopedPool four_lanes(4);
    core::BatchedVdpEngine parallel(opts);
    parallel.advance_effects(2.0);
    y4 = parallel.photonic_matmul(x, w);
  }

  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t o = 0; o < w.rows(); ++o) {
      EXPECT_EQ(y1(b, o), y4(b, o)) << "dot (" << b << ", " << o << ")";
    }
  }
}

TEST(EffectPipeline, EffectsPerturbTheIdealDatapath) {
  numerics::Rng rng(13);
  const numerics::Matrix x = random_matrix(4, 30, rng);
  const numerics::Matrix w = random_matrix(4, 30, rng);

  core::BatchedVdpEngine ideal{core::VdpSimOptions{}};
  const numerics::Matrix y0 = ideal.photonic_matmul(x, w);

  core::BatchedVdpEngine perturbed(all_effects_options());
  perturbed.advance_effects(5.0);  // Warm the thermal residual in.
  const numerics::Matrix y1 = perturbed.photonic_matmul(x, w);

  double max_delta = 0.0;
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t o = 0; o < w.rows(); ++o) {
      max_delta = std::max(max_delta, std::abs(y1(b, o) - y0(b, o)));
    }
  }
  EXPECT_GT(max_delta, 0.0);   // Non-idealities visibly move outputs...
  EXPECT_LT(max_delta, 10.0);  // ...but stay physically bounded.
}

TEST(EffectPipeline, ThermalStateEvolvesAcrossTimeAndResets) {
  core::VdpSimOptions opts;
  opts.effects.thermal = true;
  opts.effects.seed = 99;
  numerics::Rng rng(14);
  const numerics::Matrix x = random_matrix(2, 15, rng);
  const numerics::Matrix w = random_matrix(2, 15, rng);

  core::BatchedVdpEngine engine(opts);
  const numerics::Matrix at_boot = engine.photonic_matmul(x, w);
  engine.advance_effects(2.0);
  const numerics::Matrix warmed = engine.photonic_matmul(x, w);
  engine.reset_effects();
  const numerics::Matrix reset = engine.photonic_matmul(x, w);

  bool moved = false;
  for (std::size_t b = 0; b < 2 && !moved; ++b) {
    for (std::size_t o = 0; o < 2 && !moved; ++o) {
      moved = warmed(b, o) != at_boot(b, o);
    }
  }
  EXPECT_TRUE(moved);  // Drift warmed in between t = 0 and t = 2 us.
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t o = 0; o < 2; ++o) {
      EXPECT_EQ(reset(b, o), at_boot(b, o));  // reset() restores boot state.
    }
  }
  EXPECT_EQ(engine.effects().time_us(), 0.0);
}

TEST(EffectPipeline, ThermalTelemetryReproducesFig4Ordering) {
  core::VdpSimOptions opts;
  opts.effects.thermal = true;
  core::BatchedVdpEngine ted(opts);
  const core::ThermalTelemetry* t = ted.effects().thermal_telemetry();
  ASSERT_NE(t, nullptr);
  // Naive per-heater drive overdrives against crosstalk: notably more power
  // and a worse trim residual than the TED collective solve (Fig. 4).
  EXPECT_GT(t->naive_mean_power_mw, t->ted_mean_power_mw);
  EXPECT_LT(t->residual_rms_nm, 1e-6);  // TED solves the collective problem.

  opts.effects.thermal_stage.use_ted = false;
  core::BatchedVdpEngine naive(opts);
  const core::ThermalTelemetry* n = naive.effects().thermal_telemetry();
  ASSERT_NE(n, nullptr);
  EXPECT_GT(n->residual_rms_nm, t->residual_rms_nm * 100.0);
  // Both drive modes are solved at boot regardless of which one is active.
  EXPECT_EQ(n->residual_rms_nm, n->naive_residual_rms_nm);
  EXPECT_EQ(t->residual_rms_nm, t->ted_residual_rms_nm);
  EXPECT_EQ(n->ted_residual_rms_nm, t->ted_residual_rms_nm);
}

TEST(EffectPipeline, ThermalStageReproducesFig4ShapesAcrossPitch) {
  // Fig. 4's pitch axis on a bank of 10 MRs, with the proxy MLP run on the
  // functional datapath under the thermal stage. Without TED, per-heater
  // drive diverges at dense pitch and loses the network until the rings are
  // far apart; with TED, power stays bounded and accuracy never moves. (The
  // paper's TED power minimum at 5 um is not reproduced: TED power is not
  // U-shaped here.)
  const std::vector<double> pitches = {1.0, 2.0,  3.0,  4.0,  5.0, 6.0,
                                       8.0, 10.0, 12.0, 16.0, 20.0};
  dnn::Table1ProxyMlp proxy = dnn::train_table1_proxy_mlp(20);
  constexpr std::size_t kSamples = 64;
  std::vector<double> ted_power, naive_power, ted_acc, naive_acc;
  for (const double pitch : pitches) {
    for (const bool use_ted : {true, false}) {
      core::VdpSimOptions opts;
      opts.mrs_per_bank = 10;
      opts.effects.thermal = true;
      opts.effects.thermal_stage.pitch_um = pitch;
      opts.effects.thermal_stage.use_ted = use_ted;
      core::PhotonicInferenceEngine engine(proxy.net, opts);
      (use_ted ? ted_acc : naive_acc)
          .push_back(engine.evaluate_accuracy(proxy.test, kSamples));
      if (use_ted) {
        const core::ThermalTelemetry* t = engine.engine().effects().thermal_telemetry();
        ASSERT_NE(t, nullptr);
        ted_power.push_back(t->ted_mean_power_mw);
        naive_power.push_back(t->naive_mean_power_mw);
      }
    }
  }
  for (std::size_t i = 0; i < pitches.size(); ++i) {
    SCOPED_TRACE(pitches[i]);
    EXPECT_GE(naive_power[i], ted_power[i]);
    EXPECT_LT(ted_power[i], 2.5);
    EXPECT_EQ(ted_acc[i], ted_acc.front());
    if (pitches[i] <= 5.0) {
      EXPECT_LT(naive_acc[i], 0.1);
    }
  }
  EXPECT_GT(naive_power.front(), 5.0 * ted_power.front());   // 1 um: diverges.
  EXPECT_LT(naive_power.back(), 1.01 * ted_power.back());    // 20 um: converges.
  EXPECT_GT(ted_acc.front(), 0.6);
  EXPECT_EQ(naive_acc.back(), ted_acc.back());  // Recovered by 20 um.
}

TEST(EffectPipeline, ConfigParseAndSummaryRoundTrip) {
  EXPECT_EQ(core::EffectConfig{}.summary(), "crosstalk");
  EXPECT_EQ(core::EffectConfig::parse("none").summary(), "crosstalk");
  EXPECT_EQ(core::EffectConfig::parse("ideal").summary(), "none");
  EXPECT_EQ(core::EffectConfig::parse("thermal,fpv,noise").summary(),
            "thermal,fpv,noise,crosstalk");
  EXPECT_EQ(core::EffectConfig::parse("all").summary(),
            "thermal,fpv,noise,crosstalk");
  EXPECT_EQ(core::EffectConfig::parse("noise,nocrosstalk").summary(), "noise");
  EXPECT_TRUE(core::EffectConfig::parse("thermal").crosstalk);
  EXPECT_THROW((void)core::EffectConfig::parse("thermal,bogus"),
               std::invalid_argument);
}

TEST(EffectPipeline, ConfigParseTrimsWhitespaceButRejectsUnknownTokensByName) {
  // Scenario files write padded lists ("thermal, fpv"); padding must parse.
  const core::EffectConfig padded =
      core::EffectConfig::parse(" thermal , fpv ,\tnoise ");
  EXPECT_TRUE(padded.thermal);
  EXPECT_TRUE(padded.fpv);
  EXPECT_TRUE(padded.noise);
  // Empty elements (trailing / doubled commas) are harmless, not errors.
  EXPECT_TRUE(core::EffectConfig::parse("thermal,,fpv,").thermal);
  // Unknown tokens still fail loudly, named, never silently ignored —
  // whatever whitespace surrounds them.
  try {
    (void)core::EffectConfig::parse("thermal, bogus ");
    FAIL() << "unknown effect token accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'bogus'"), std::string::npos) << e.what();
  }
}

TEST(EffectPipeline, ValidationRejectsNonPhysicalConfigs) {
  core::VdpSimOptions bad;
  bad.effects.thermal_stage.pitch_um = 0.0;
  EXPECT_THROW(core::BatchedVdpEngine{bad}, std::invalid_argument);
  bad = core::VdpSimOptions{};
  bad.effects.fpv_stage.trim_residual_fraction = 1.5;
  EXPECT_THROW(core::BatchedVdpEngine{bad}, std::invalid_argument);
  bad = core::VdpSimOptions{};
  bad.effects.noise_stage.optical_power_mw = -1.0;
  EXPECT_THROW(core::BatchedVdpEngine{bad}, std::invalid_argument);
  bad = core::VdpSimOptions{};
  bad.effects.thermal_stage.dt_us = 0.0;
  EXPECT_THROW(core::BatchedVdpEngine{bad}, std::invalid_argument);
  // VdpSimOptions::validate mirrors BaselineParams::validate.
  bad = core::VdpSimOptions{};
  bad.q_factor = 0.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = core::VdpSimOptions{};
  bad.mrs_per_bank = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = core::VdpSimOptions{};
  bad.resolution_bits = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = core::VdpSimOptions{};
  bad.fsr_nm = -1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(EffectPipeline, StageSetMatchesConfig) {
  core::VdpSimOptions opts = all_effects_options();
  const core::EffectPipeline pipeline(opts);
  const auto names = pipeline.stage_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "thermal");
  EXPECT_EQ(names[1], "fpv");
  EXPECT_EQ(names[2], "noise");
  EXPECT_EQ(names[3], "crosstalk");
  EXPECT_TRUE(pipeline.active());
  EXPECT_GT(pipeline.noise_std(), 0.0);

  const core::EffectPipeline idle{core::VdpSimOptions{}};
  EXPECT_FALSE(idle.active());
  EXPECT_EQ(idle.vdp_effects(), nullptr);  // Ideal fast path.
  EXPECT_TRUE(idle.crosstalk());
}

TEST(EffectPipeline, InferBatchDeterministicUnderEffects) {
  dnn::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 10;
  spec.width = 10;
  spec.channels = 1;
  spec.seed = 33;
  const dnn::Dataset data = dnn::generate_classification(spec, 6, 2);
  numerics::Rng rng(21);
  dnn::Network net;
  net.emplace<dnn::Conv2d>(dnn::Conv2dConfig{1, 4, 3, 1, 1}, rng);
  net.emplace<dnn::ReLU>();
  net.emplace<dnn::MaxPool2d>(2);
  net.emplace<dnn::Flatten>();
  net.emplace<dnn::Dense>(4 * 5 * 5, 4, rng);

  const core::VdpSimOptions opts = all_effects_options();
  core::PhotonicInferenceEngine a(net, opts);
  core::PhotonicInferenceEngine b(net, opts);
  const dnn::Tensor la = a.infer_batch(dnn::batch_images(data, 0, 6));
  const dnn::Tensor lb = b.infer_batch(dnn::batch_images(data, 0, 6));
  for (std::size_t n = 0; n < 6; ++n) {
    for (std::size_t c = 0; c < la.dim(1); ++c) {
      EXPECT_EQ(la.at2(n, c), lb.at2(n, c));
    }
  }
  // Per-layer time stepping advanced the pipeline once per photonic layer
  // per batch (2 accelerated layers x 1 batch x dt 1 us).
  EXPECT_EQ(a.engine().effects().time_us(), 2.0);
}

}  // namespace
