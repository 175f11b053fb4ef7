// Optoelectronic device tests: the Table II parameter set and the functional
// device models (MZM, PD, VCSEL, quantizer).
#include <gtest/gtest.h>

#include <vector>

#include "photonics/device_params.hpp"
#include "photonics/devices.hpp"

namespace xl::photonics {
namespace {

TEST(DeviceParams, DefaultsMatchTableTwo) {
  const DeviceParams p = default_device_params();
  // Table II: latency / power per device.
  EXPECT_DOUBLE_EQ(p.eo_tuning_latency_ns, 20.0);
  EXPECT_DOUBLE_EQ(p.eo_tuning_power_uw_per_nm, 4.0);
  EXPECT_DOUBLE_EQ(p.to_tuning_latency_us, 4.0);
  EXPECT_DOUBLE_EQ(p.to_tuning_power_mw_per_fsr, 27.5);
  EXPECT_DOUBLE_EQ(p.vcsel_latency_ns, 10.0);
  EXPECT_DOUBLE_EQ(p.vcsel_power_mw, 0.66);
  EXPECT_DOUBLE_EQ(p.tia_latency_ns, 0.15);
  EXPECT_DOUBLE_EQ(p.tia_power_mw, 7.2);
  EXPECT_DOUBLE_EQ(p.pd_latency_ns, 0.0058);  // 5.8 ps.
  EXPECT_DOUBLE_EQ(p.pd_power_mw, 2.8);
  EXPECT_DOUBLE_EQ(p.transceiver_max_rate_gbps, 56.0);  // ADC/DAC [37].
  EXPECT_DOUBLE_EQ(p.transceiver_max_power_mw, 250.0);
  // Section V-A signal losses.
  EXPECT_DOUBLE_EQ(p.propagation_loss_db_per_cm, 1.0);
  EXPECT_DOUBLE_EQ(p.splitter_loss_db, 0.13);
  EXPECT_DOUBLE_EQ(p.combiner_loss_db, 0.9);
  EXPECT_DOUBLE_EQ(p.mr_through_loss_db, 0.02);
  EXPECT_DOUBLE_EQ(p.mr_modulation_loss_db, 0.72);
  EXPECT_DOUBLE_EQ(p.microdisk_loss_db, 1.22);
  EXPECT_DOUBLE_EQ(p.eo_tuning_loss_db_per_cm, 6.0);
  EXPECT_DOUBLE_EQ(p.to_tuning_loss_db_per_cm, 1.0);
  // Section IV-A FPV drifts and the fabricated MR's Q / FSR / wavelength.
  EXPECT_DOUBLE_EQ(p.fpv_drift_conventional_nm, 7.1);
  EXPECT_DOUBLE_EQ(p.fpv_drift_optimized_nm, 2.1);
  EXPECT_DOUBLE_EQ(p.mr_q_factor, 8000.0);
  EXPECT_DOUBLE_EQ(p.mr_fsr_nm, 18.0);
  EXPECT_DOUBLE_EQ(p.center_wavelength_nm, 1550.0);
}

TEST(Mzm, ScalesPowerByValue) {
  EXPECT_DOUBLE_EQ(MachZehnderModulator::modulate(2.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(MachZehnderModulator::modulate(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(MachZehnderModulator::modulate(2.0, 1.0), 2.0);
}

TEST(Mzm, ClampsDriveAndPower) {
  EXPECT_DOUBLE_EQ(MachZehnderModulator::modulate(2.0, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(MachZehnderModulator::modulate(2.0, -0.5), 0.0);
  EXPECT_DOUBLE_EQ(MachZehnderModulator::modulate(-1.0, 0.5), 0.0);
}

TEST(Photodetector, SumsChannels) {
  const Photodetector pd(1.0);
  const std::vector<double> powers{0.5, 0.25, 0.25};
  EXPECT_DOUBLE_EQ(pd.detect(powers), 1.0);
}

TEST(Photodetector, ResponsivityScales) {
  const Photodetector pd(0.8);
  const std::vector<double> powers{1.0};
  EXPECT_DOUBLE_EQ(pd.detect(powers), 0.8);
  EXPECT_THROW(Photodetector(0.0), std::invalid_argument);
}

TEST(BalancedPhotodetector, SubtractsArms) {
  const BalancedPhotodetector bpd(1.0);
  const std::vector<double> pos{0.7, 0.3};
  const std::vector<double> neg{0.4};
  EXPECT_DOUBLE_EQ(bpd.detect(pos, neg), 0.6);
}

TEST(Vcsel, EmitsScaledPeakPower) {
  const Vcsel v(0.66);
  EXPECT_DOUBLE_EQ(v.emit(1.0), 0.66);
  EXPECT_DOUBLE_EQ(v.emit(0.5), 0.33);
  EXPECT_DOUBLE_EQ(v.emit(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(v.emit(2.0), 0.66);
  EXPECT_THROW(Vcsel(0.0), std::invalid_argument);
}

TEST(Quantizer, LevelsAndBits) {
  const UniformQuantizer q(4);
  EXPECT_EQ(q.bits(), 4);
  EXPECT_EQ(q.levels(), 16u);
  EXPECT_THROW(UniformQuantizer(0), std::invalid_argument);
  EXPECT_THROW(UniformQuantizer(25), std::invalid_argument);
}

TEST(Quantizer, EndpointsExact) {
  const UniformQuantizer q(8);
  EXPECT_DOUBLE_EQ(q.quantize(0.0), 0.0);
  EXPECT_DOUBLE_EQ(q.quantize(1.0), 1.0);
}

TEST(Quantizer, ClampsOutOfRange) {
  const UniformQuantizer q(8);
  EXPECT_DOUBLE_EQ(q.quantize(-0.3), 0.0);
  EXPECT_DOUBLE_EQ(q.quantize(1.7), 1.0);
}

TEST(Quantizer, EncodeDecodeRoundTrip) {
  const UniformQuantizer q(6);
  for (std::uint32_t code = 0; code < q.levels(); ++code) {
    EXPECT_EQ(q.encode(q.decode(code)), code);
  }
}

class QuantizerError : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerError, BoundedByHalfStep) {
  const UniformQuantizer q(GetParam());
  for (int i = 0; i <= 1000; ++i) {
    const double v = i / 1000.0;
    EXPECT_LE(std::abs(q.quantize(v) - v), q.max_error() + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, QuantizerError, ::testing::Values(1, 2, 4, 8, 12, 16));

TEST(Quantizer, HigherResolutionNeverWorse) {
  const UniformQuantizer q4(4);
  const UniformQuantizer q8(8);
  for (int i = 0; i <= 100; ++i) {
    const double v = i / 100.0;
    EXPECT_LE(std::abs(q8.quantize(v) - v), std::abs(q4.quantize(v) - v) + 1e-12);
  }
}

TEST(Quantizer, VectorOverloadMatchesScalar) {
  const UniformQuantizer q(5);
  const std::vector<double> in{0.1, 0.5, 0.9};
  const auto out = q.quantize(in);
  ASSERT_EQ(out.size(), 3u);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], q.quantize(in[i]));
  }
}

}  // namespace
}  // namespace xl::photonics
