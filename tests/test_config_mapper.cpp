// Architecture configuration and CONV/FC decomposition mapper tests
// (Section IV-C.1's Eqs. 1-6 decomposition accounting).
#include <gtest/gtest.h>

#include "core/config.hpp"
#include "core/mapper.hpp"
#include "dnn/models.hpp"

namespace xl::core {
namespace {

TEST(Config, BestConfigMatchesPaperSelection) {
  const ArchitectureConfig cfg = best_config();
  // Fig. 6 winner: (N, K, n, m) = (20, 150, 100, 60).
  EXPECT_EQ(cfg.conv_unit_size, 20u);
  EXPECT_EQ(cfg.fc_unit_size, 150u);
  EXPECT_EQ(cfg.conv_units, 100u);
  EXPECT_EQ(cfg.fc_units, 60u);
  EXPECT_EQ(cfg.mrs_per_bank, 15u);
  EXPECT_EQ(cfg.resolution_bits, 16);
}

TEST(Config, VariantNamesMatchPaper) {
  EXPECT_EQ(variant_name(Variant::kBase), "Cross_base");
  EXPECT_EQ(variant_name(Variant::kBaseTed), "Cross_base_TED");
  EXPECT_EQ(variant_name(Variant::kOpt), "Cross_opt");
  EXPECT_EQ(variant_name(Variant::kOptTed), "Cross_opt_TED");
}

TEST(Config, VariantFlags) {
  EXPECT_FALSE(variant_uses_ted(Variant::kBase));
  EXPECT_TRUE(variant_uses_ted(Variant::kBaseTed));
  EXPECT_FALSE(variant_uses_optimized_mr(Variant::kBaseTed));
  EXPECT_TRUE(variant_uses_optimized_mr(Variant::kOptTed));
}

TEST(Config, PitchFollowsVariant) {
  ArchitectureConfig cfg = best_config();
  cfg.variant = Variant::kOptTed;
  EXPECT_DOUBLE_EQ(cfg.mr_pitch_um(), 5.0);    // The paper's Fig. 4 optimum.
  cfg.variant = Variant::kOpt;
  EXPECT_DOUBLE_EQ(cfg.mr_pitch_um(), 120.0);  // Guard spacing (Sec. IV-A).
}

TEST(Config, DriftFollowsVariant) {
  ArchitectureConfig cfg = best_config();
  cfg.variant = Variant::kBase;
  EXPECT_DOUBLE_EQ(cfg.fpv_drift_nm(), 7.1);
  cfg.variant = Variant::kOptTed;
  EXPECT_DOUBLE_EQ(cfg.fpv_drift_nm(), 2.1);
}

TEST(Config, ArmAndMrAccounting) {
  const ArchitectureConfig cfg = best_config();
  EXPECT_EQ(cfg.arms_per_unit(20), 2u);    // ceil(20/15).
  EXPECT_EQ(cfg.arms_per_unit(150), 10u);  // ceil(150/15).
  EXPECT_EQ(cfg.arms_per_unit(15), 1u);
  EXPECT_EQ(cfg.mrs_per_unit(20), 40u);    // Activation + weight MRs.
  // Totals: 100*40 + 60*300 MRs; 100*2 + 60*10 arms.
  EXPECT_EQ(cfg.total_mrs(), 100u * 40u + 60u * 300u);
  EXPECT_EQ(cfg.total_arms(), 100u * 2u + 60u * 10u);
}

TEST(Config, ValidationCatchesBadValues) {
  ArchitectureConfig cfg = best_config();
  cfg.conv_units = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = best_config();
  cfg.mrs_per_bank = 16;  // Paper caps at 15 per bank.
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = best_config();
  cfg.resolution_bits = 20;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = best_config();
  cfg.pitch_guard_um = 1.0;  // Below TED pitch.
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Mapper, SingleConvLayerByHand) {
  // conv: 4x4 output, 8 filters, kernel 3x3 over 2 channels => 128 dot
  // products of length 18; with N=20 each needs 1 pass.
  xl::dnn::ModelSpec model;
  model.name = "tiny";
  model.layers = {xl::dnn::conv_spec("c1", 2, 8, 3, 4, 4)};
  const ModelMapping m = map_model(model, best_config());
  ASSERT_EQ(m.layers.size(), 1u);
  EXPECT_TRUE(m.layers[0].is_conv);
  EXPECT_EQ(m.layers[0].dot_products, 128u);
  EXPECT_EQ(m.layers[0].dot_length, 18u);
  EXPECT_EQ(m.layers[0].passes_per_dot, 1u);
  EXPECT_EQ(m.layers[0].total_passes, 128u);
  EXPECT_EQ(m.layers[0].rounds, 2u);  // ceil(128/100).
  EXPECT_EQ(m.total_macs, 128u * 18u);
}

TEST(Mapper, FcDecompositionByHand) {
  // fc: 4096 -> 201 on K=150 units: ceil(4096/150) = 28 passes per neuron.
  xl::dnn::ModelSpec model;
  model.name = "fc";
  model.layers = {xl::dnn::dense_spec("fc1", 4096, 201)};
  const ModelMapping m = map_model(model, best_config());
  EXPECT_FALSE(m.layers[0].is_conv);
  EXPECT_EQ(m.layers[0].passes_per_dot, 28u);
  EXPECT_EQ(m.layers[0].total_passes, 201u * 28u);
  EXPECT_EQ(m.layers[0].rounds, (201u * 28u + 59u) / 60u);
}

TEST(Mapper, SiameseBranchesDoubleWork) {
  xl::dnn::ModelSpec model;
  model.name = "twin";
  model.branches = 2;
  model.layers = {xl::dnn::dense_spec("fc", 100, 10)};
  const ModelMapping m = map_model(model, best_config());
  EXPECT_EQ(m.layers[0].dot_products, 20u);  // 2 branches x 10 neurons.
}

TEST(Mapper, SkipsNonAcceleratedLayers) {
  xl::dnn::ModelSpec model = xl::dnn::lenet5_spec();
  const ModelMapping m = map_model(model, best_config());
  // LeNet5 spec: 2 conv + 2 fc accelerated layers (pool/relu skipped).
  EXPECT_EQ(m.layers.size(), 4u);
  EXPECT_EQ(m.total_macs, model.total_macs());
}

TEST(Mapper, ModelWithoutComputeThrows) {
  xl::dnn::ModelSpec model;
  model.name = "empty";
  xl::dnn::LayerSpec pool;
  pool.kind = xl::dnn::LayerKind::kPool;
  model.layers = {pool};
  EXPECT_THROW((void)map_model(model, best_config()), std::invalid_argument);
}

TEST(Mapper, WholeZooMapsCleanly) {
  for (const auto& model : xl::dnn::table1_models()) {
    const ModelMapping m = map_model(model, best_config());
    EXPECT_GT(m.total_passes, 0u) << model.name;
    EXPECT_GT(m.total_rounds, 0u) << model.name;
    EXPECT_EQ(m.total_passes, m.conv_passes() + m.fc_passes()) << model.name;
  }
}

}  // namespace
}  // namespace xl::core
