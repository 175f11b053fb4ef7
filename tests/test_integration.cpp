// Cross-module integration tests: trained DNN inference executed through the
// photonic VDP simulator, end-to-end variant evaluation, and the full
// device -> circuit -> architecture chain.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/accelerator.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/activations.hpp"
#include "dnn/datasets.hpp"
#include "dnn/dense.hpp"
#include "dnn/reshape.hpp"
#include "dnn/models.hpp"
#include "dnn/trainer.hpp"
#include "numerics/rng.hpp"
#include "photonics/crosstalk.hpp"

namespace {

using namespace xl;

/// Run a 2-layer MLP's dense math through the photonic VDP simulator and
/// compare logits against the float reference.
class PhotonicMlp {
 public:
  PhotonicMlp(dnn::Dense& fc1, dnn::Dense& fc2, const core::VdpSimulator& sim)
      : fc1_(fc1), fc2_(fc2), sim_(sim) {}

  [[nodiscard]] std::vector<double> infer(const std::vector<double>& input) const {
    const std::vector<double> h = dense_photonic(fc1_, input, /*relu=*/true);
    return dense_photonic(fc2_, h, /*relu=*/false);
  }

 private:
  [[nodiscard]] std::vector<double> dense_photonic(dnn::Dense& layer,
                                                   const std::vector<double>& x,
                                                   bool relu) const {
    std::vector<double> out(layer.out_features());
    std::vector<double> w_row(layer.in_features());
    for (std::size_t o = 0; o < layer.out_features(); ++o) {
      for (std::size_t i = 0; i < layer.in_features(); ++i) {
        w_row[i] = layer.weights().at2(o, i);
      }
      double acc = sim_.dot(x, w_row) + layer.bias()[o];
      if (relu && acc < 0.0) acc = 0.0;
      out[o] = acc;
    }
    return out;
  }

  dnn::Dense& fc1_;
  dnn::Dense& fc2_;
  const core::VdpSimulator& sim_;
};

TEST(Integration, TrainedMlpInferenceSurvivesPhotonicDatapath) {
  numerics::Rng rng(7);
  dnn::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 6;
  spec.width = 6;
  spec.channels = 1;
  spec.noise_std = 0.05;
  spec.jitter_px = 0;
  spec.seed = 77;
  const dnn::Dataset train = dnn::generate_classification(spec, 256, 0);
  const dnn::Dataset test = dnn::generate_classification(spec, 64, 1);

  dnn::Network net;
  net.emplace<dnn::Flatten>();
  auto fc1 = std::make_unique<dnn::Dense>(36, 24, rng);
  auto fc2 = std::make_unique<dnn::Dense>(24, 4, rng);
  dnn::Dense* fc1_ptr = fc1.get();
  dnn::Dense* fc2_ptr = fc2.get();
  net.add(std::move(fc1));
  net.emplace<dnn::ReLU>();
  net.add(std::move(fc2));

  dnn::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.batch_size = 32;
  cfg.learning_rate = 3e-3;
  const auto result = dnn::train_classifier(net, train, test, cfg);
  ASSERT_GT(result.test_accuracy, 0.6);

  // Photonic inference over the test set.
  const core::VdpSimulator sim;
  const PhotonicMlp photonic(*fc1_ptr, *fc2_ptr, sim);
  std::size_t agree = 0;
  std::size_t correct = 0;
  const std::size_t samples = 32;
  for (std::size_t n = 0; n < samples; ++n) {
    std::vector<double> input(36);
    for (std::size_t i = 0; i < 36; ++i) {
      input[i] = test.images[n * 36 + i];
    }
    const std::vector<double> logits = photonic.infer(input);
    // Float reference.
    dnn::Tensor x({1, 1, 6, 6});
    for (std::size_t i = 0; i < 36; ++i) x[i] = test.images[n * 36 + i];
    const dnn::Tensor ref = net.forward(x, false);

    const auto argmax = [](const auto& v, std::size_t size) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < size; ++c) {
        if (v[c] > v[best]) best = c;
      }
      return best;
    };
    std::vector<double> ref_logits(4);
    for (std::size_t c = 0; c < 4; ++c) ref_logits[c] = ref.at2(0, c);
    const std::size_t photonic_pred = argmax(logits, 4);
    if (photonic_pred == argmax(ref_logits, 4)) ++agree;
    if (photonic_pred == test.labels[n]) ++correct;
  }
  // The analog datapath preserves almost all decisions at 16-bit resolution.
  EXPECT_GE(static_cast<double>(agree) / samples, 0.85);
  EXPECT_GE(static_cast<double>(correct) / samples, 0.5);
}

TEST(Integration, ResolutionAnalysisConsistentWithArchitecture) {
  // The architecture's 15-MR banks with wavelength reuse sustain the 16-bit
  // datapath the config claims (Section V-B).
  const core::ArchitectureConfig cfg = core::best_config();
  photonics::ResolutionOptions opts;
  opts.q_factor = cfg.devices.mr_q_factor;
  opts.center_wavelength_nm = cfg.devices.center_wavelength_nm;
  const int bits = photonics::bank_resolution_bits(cfg.mrs_per_bank,
                                                   cfg.devices.mr_fsr_nm, opts);
  EXPECT_GE(bits, cfg.resolution_bits);
}

TEST(Integration, EndToEndVariantEvaluationStable) {
  // Evaluating all four variants over all four models must be deterministic.
  const auto models = dnn::table1_models();
  for (int run = 0; run < 2; ++run) {
    const core::CrossLightAccelerator accel(core::variant_config(core::Variant::kOptTed));
    const auto reports = accel.evaluate_all(models);
    static double first_epb = 0.0;
    const double epb = core::summarize(reports).avg_epb_pj;
    if (run == 0) {
      first_epb = epb;
    } else {
      EXPECT_DOUBLE_EQ(epb, first_epb);
    }
  }
}

TEST(Integration, QuantizedNetworkMatchesBankResolutionStory) {
  // A 16-bit QAT network loses essentially nothing vs float — consistent
  // with CrossLight's claim that 16-bit resolution preserves accuracy, while
  // 2-bit (Holylight per-disk) degrades (Fig. 5).
  numerics::Rng rng(13);
  dnn::SyntheticSpec spec;
  spec.classes = 4;
  spec.height = 8;
  spec.width = 8;
  spec.channels = 1;
  spec.noise_std = 0.1;
  spec.seed = 55;
  const dnn::Dataset train = dnn::generate_classification(spec, 256, 0);
  const dnn::Dataset test = dnn::generate_classification(spec, 128, 1);

  auto train_at_bits = [&](int bits) {
    numerics::Rng local(13);
    dnn::Network net;
    net.emplace<dnn::Flatten>();
    net.emplace<dnn::Dense>(64, 32, local);
    net.emplace<dnn::ReLU>();
    net.emplace<dnn::Dense>(32, 4, local);
    if (bits > 0) net.set_quantization(dnn::QuantizationSpec{bits, bits});
    dnn::TrainConfig cfg;
    cfg.epochs = 8;
    cfg.batch_size = 32;
    cfg.learning_rate = 3e-3;
    return dnn::train_classifier(net, train, test, cfg).test_accuracy;
  };
  const double fp = train_at_bits(0);
  const double crosslight_res = train_at_bits(16);
  const double holylight_disk_res = train_at_bits(2);
  EXPECT_GT(crosslight_res, fp - 0.1);
  EXPECT_LE(holylight_disk_res, crosslight_res + 0.05);
}

}  // namespace
