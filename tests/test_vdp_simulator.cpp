// Functional VDP simulator tests: the analog datapath computes dot products
// within quantization + crosstalk error bounds.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/vdp_simulator.hpp"
#include "numerics/rng.hpp"

namespace xl::core {
namespace {

using xl::numerics::Rng;

std::vector<double> random_vec(std::size_t n, Rng& rng, double lo, double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

TEST(VdpSim, Validation) {
  VdpSimOptions bad;
  bad.mrs_per_bank = 0;
  EXPECT_THROW(VdpSimulator{bad}, std::invalid_argument);
  bad = VdpSimOptions{};
  bad.resolution_bits = 0;
  EXPECT_THROW(VdpSimulator{bad}, std::invalid_argument);
  bad = VdpSimOptions{};
  bad.q_factor = -1.0;
  EXPECT_THROW(VdpSimulator{bad}, std::invalid_argument);
}

TEST(VdpSim, ExactDotReference) {
  const std::vector<double> x{1.0, 2.0, 3.0};
  const std::vector<double> w{4.0, 5.0, 6.0};
  const std::vector<double> short_w{1.0};
  EXPECT_DOUBLE_EQ(VdpSimulator::exact_dot(x, w), 32.0);
  EXPECT_THROW((void)VdpSimulator::exact_dot(x, short_w), std::invalid_argument);
}

TEST(VdpSim, EmptyAndZeroInputs) {
  const VdpSimulator sim;
  const std::vector<double> empty;
  EXPECT_EQ(sim.dot(empty, empty), 0.0);
  const std::vector<double> zeros(5, 0.0);
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_EQ(sim.dot(zeros, w), 0.0);
}

TEST(VdpSim, SizeMismatchThrows) {
  const VdpSimulator sim;
  const std::vector<double> x{1.0, 2.0};
  const std::vector<double> w{1.0};
  EXPECT_THROW((void)sim.dot(x, w), std::invalid_argument);
}

TEST(VdpSim, SingleProductAccurate) {
  const VdpSimulator sim;
  const std::vector<double> x{0.8};
  const std::vector<double> w{0.5};
  // Section III's worked example: 0.8 weighted by 0.5 -> 0.4.
  EXPECT_NEAR(sim.dot(x, w), 0.4, 0.01);
}

TEST(VdpSim, PositiveDotWithinFewPercent) {
  Rng rng(1);
  const VdpSimulator sim;
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_vec(15, rng, 0.1, 1.0);
    const auto w = random_vec(15, rng, 0.1, 1.0);
    const double exact = VdpSimulator::exact_dot(x, w);
    EXPECT_NEAR(sim.dot(x, w), exact, 0.06 * std::abs(exact) + 0.02);
  }
}

TEST(VdpSim, SignedWeightsViaBalancedDetection) {
  Rng rng(2);
  const VdpSimulator sim;
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_vec(12, rng, 0.0, 1.0);
    const auto w = random_vec(12, rng, -1.0, 1.0);
    const double exact = VdpSimulator::exact_dot(x, w);
    EXPECT_NEAR(sim.dot(x, w), exact, 0.08 * std::abs(exact) + 0.05);
  }
}

TEST(VdpSim, SignedActivationsFoldedIntoWeights) {
  const VdpSimulator sim;
  const std::vector<double> x{-0.5, 0.5};
  const std::vector<double> w{0.6, 0.6};
  EXPECT_NEAR(sim.dot(x, w), 0.0, 0.02);
}

TEST(VdpSim, LongVectorsChunkAcrossArms) {
  Rng rng(3);
  const VdpSimulator sim;
  const auto x = random_vec(100, rng, 0.0, 1.0);
  const auto w = random_vec(100, rng, 0.0, 1.0);
  const double exact = VdpSimulator::exact_dot(x, w);
  EXPECT_NEAR(sim.dot(x, w), exact, 0.06 * exact + 0.1);
}

TEST(VdpSim, CrosstalkInjectsSystematicError) {
  VdpSimOptions with;
  with.effects.crosstalk = true;
  VdpSimOptions without;
  without.effects.crosstalk = false;
  const VdpSimulator sim_with(with);
  const VdpSimulator sim_without(without);

  Rng rng(4);
  double err_with = 0.0;
  double err_without = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_vec(15, rng, 0.2, 1.0);
    const auto w = random_vec(15, rng, 0.2, 1.0);
    err_with += sim_with.absolute_error(x, w);
    err_without += sim_without.absolute_error(x, w);
  }
  EXPECT_GT(err_with, err_without);
}

class VdpResolutionSweep : public ::testing::TestWithParam<int> {};

TEST_P(VdpResolutionSweep, ErrorShrinksWithBits) {
  const int bits = GetParam();
  VdpSimOptions low;
  low.resolution_bits = bits;
  low.effects.crosstalk = false;
  VdpSimOptions high;
  high.resolution_bits = std::min(16, bits + 6);
  high.effects.crosstalk = false;
  const VdpSimulator sim_low(low);
  const VdpSimulator sim_high(high);

  Rng rng(100 + bits);
  double err_low = 0.0;
  double err_high = 0.0;
  for (int trial = 0; trial < 30; ++trial) {
    const auto x = random_vec(10, rng, 0.0, 1.0);
    const auto w = random_vec(10, rng, 0.0, 1.0);
    err_low += sim_low.absolute_error(x, w);
    err_high += sim_high.absolute_error(x, w);
  }
  EXPECT_LE(err_high, err_low + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Bits, VdpResolutionSweep, ::testing::Values(2, 3, 4, 6, 8));

TEST(VdpSim, LowerQMeansMoreCrosstalkError) {
  VdpSimOptions high_q;
  high_q.q_factor = 8000.0;
  VdpSimOptions low_q;
  low_q.q_factor = 1000.0;
  const VdpSimulator sim_high(high_q);
  const VdpSimulator sim_low(low_q);
  Rng rng(5);
  double err_high = 0.0;
  double err_low = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = random_vec(15, rng, 0.2, 1.0);
    const auto w = random_vec(15, rng, 0.2, 1.0);
    err_high += sim_high.absolute_error(x, w);
    err_low += sim_low.absolute_error(x, w);
  }
  EXPECT_LT(err_high, err_low);
}

}  // namespace
}  // namespace xl::core
