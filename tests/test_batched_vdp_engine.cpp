// Batched photonic execution engine tests: per-element parity with the
// scalar VdpSimulator path, determinism across executor widths, and work
// accounting.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/vdp_simulator.hpp"
#include "exec/task_pool.hpp"
#include "numerics/gemm.hpp"
#include "numerics/rng.hpp"

namespace {

using namespace xl;

numerics::Matrix random_matrix(std::size_t rows, std::size_t cols, numerics::Rng& rng,
                               double lo, double hi) {
  numerics::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(lo, hi);
  }
  return m;
}

void expect_matches_scalar_loop(const core::VdpSimOptions& opts,
                                const numerics::Matrix& x, const numerics::Matrix& w) {
  core::BatchedVdpEngine engine(opts);
  const core::VdpSimulator sim(opts);
  const numerics::Matrix y = engine.photonic_matmul(x, w);
  ASSERT_EQ(y.rows(), x.rows());
  ASSERT_EQ(y.cols(), w.rows());

  std::vector<double> xr(x.cols());
  std::vector<double> wr(w.cols());
  for (std::size_t b = 0; b < x.rows(); ++b) {
    for (std::size_t i = 0; i < x.cols(); ++i) xr[i] = x(b, i);
    for (std::size_t o = 0; o < w.rows(); ++o) {
      for (std::size_t i = 0; i < w.cols(); ++i) wr[i] = w(o, i);
      // Acceptance bound is 1e-12; the shared kernel makes it exact.
      EXPECT_NEAR(y(b, o), sim.dot(xr, wr), 1e-12) << "b=" << b << " o=" << o;
      EXPECT_EQ(y(b, o), sim.dot(xr, wr)) << "b=" << b << " o=" << o;
    }
  }
}

TEST(BatchedVdpEngine, MatmulMatchesScalarDotLoop) {
  numerics::Rng rng(11);
  const auto x = random_matrix(5, 37, rng, -1.0, 1.0);
  const auto w = random_matrix(4, 37, rng, -1.0, 1.0);
  expect_matches_scalar_loop(core::VdpSimOptions{}, x, w);
}

TEST(BatchedVdpEngine, ParityHoldsWithoutCrosstalkAndAtLowResolution) {
  numerics::Rng rng(12);
  const auto x = random_matrix(3, 20, rng, 0.0, 1.0);
  const auto w = random_matrix(6, 20, rng, -0.5, 0.5);
  core::VdpSimOptions no_xt;
  no_xt.model_crosstalk = false;
  expect_matches_scalar_loop(no_xt, x, w);

  core::VdpSimOptions low_bits;
  low_bits.resolution_bits = 4;
  expect_matches_scalar_loop(low_bits, x, w);

  core::VdpSimOptions small_bank;
  small_bank.mrs_per_bank = 4;
  expect_matches_scalar_loop(small_bank, x, w);
}

TEST(BatchedVdpEngine, HandlesZeroRowsAndZeroWeights) {
  core::BatchedVdpEngine engine;
  numerics::Matrix x(3, 8);
  numerics::Matrix w(2, 8);
  for (std::size_t i = 0; i < 8; ++i) x(1, i) = 0.5;  // Rows 0/2 all-zero.
  for (std::size_t i = 0; i < 8; ++i) w(0, i) = 0.25;  // Row 1 all-zero.
  const numerics::Matrix y = engine.photonic_matmul(x, w);
  EXPECT_EQ(y(0, 0), 0.0);
  EXPECT_EQ(y(2, 1), 0.0);
  EXPECT_EQ(y(1, 1), 0.0);   // Zero weight row.
  EXPECT_NEAR(y(1, 0), 1.0, 0.1);  // 8 * 0.5 * 0.25.
}

TEST(BatchedVdpEngine, ShapeMismatchThrows) {
  core::BatchedVdpEngine engine;
  EXPECT_THROW((void)engine.photonic_matmul(numerics::Matrix(2, 3), numerics::Matrix(2, 4)),
               std::invalid_argument);
}

TEST(BatchedVdpEngine, PhotonicTracksExactWithinTolerance) {
  numerics::Rng rng(13);
  const auto x = random_matrix(4, 15, rng, 0.1, 1.0);
  const auto w = random_matrix(3, 15, rng, 0.1, 1.0);
  core::BatchedVdpEngine engine;
  const auto y = engine.photonic_matmul(x, w);
  const auto exact = core::BatchedVdpEngine::exact_matmul(x, w);
  for (std::size_t b = 0; b < y.rows(); ++b) {
    for (std::size_t o = 0; o < y.cols(); ++o) {
      EXPECT_NEAR(y(b, o), exact(b, o), 0.06 * std::abs(exact(b, o)) + 0.02);
    }
  }
}

TEST(BatchedVdpEngine, DeterministicAcrossThreadCounts) {
  numerics::Rng rng(14);
  const auto x = random_matrix(40, 30, rng, -1.0, 1.0);
  const auto w = random_matrix(37, 30, rng, -1.0, 1.0);
  numerics::Matrix y1;
  {
    const exec::ScopedPool one_lane(1);
    core::BatchedVdpEngine engine1;
    y1 = engine1.photonic_matmul(x, w);
  }
  numerics::Matrix y4;
  {
    const exec::ScopedPool four_lanes(4);
    core::BatchedVdpEngine engine4;
    y4 = engine4.photonic_matmul(x, w);
  }
  for (std::size_t b = 0; b < y1.rows(); ++b) {
    for (std::size_t o = 0; o < y1.cols(); ++o) {
      EXPECT_EQ(y1(b, o), y4(b, o)) << "b=" << b << " o=" << o;
    }
  }
}

TEST(BatchedVdpEngine, StatsAccumulate) {
  core::BatchedVdpEngine engine;
  numerics::Rng rng(15);
  const auto x = random_matrix(4, 10, rng, 0.0, 1.0);
  const auto w = random_matrix(3, 10, rng, 0.0, 1.0);
  (void)engine.photonic_matmul(x, w);
  (void)engine.photonic_matmul(x, w);
  EXPECT_EQ(engine.stats().matmuls, 2u);
  EXPECT_EQ(engine.stats().dot_products, 2u * 4u * 3u);
  EXPECT_EQ(engine.stats().macs, 2u * 4u * 3u * 10u);
  EXPECT_EQ(engine.stats().max_batch_rows, 4u);
  engine.reset_stats();
  EXPECT_EQ(engine.stats().matmuls, 0u);
}

TEST(BatchedVdpEngine, CrosstalkRowSumsPrecomputed) {
  core::BatchedVdpEngine engine;
  const auto& lut = engine.lut();
  ASSERT_EQ(lut.crosstalk_row_sums().size(), engine.options().mrs_per_bank);
  EXPECT_GT(lut.max_crosstalk_row_sum(), 0.0);
  for (const double phi : lut.crosstalk_row_sums()) {
    EXPECT_GE(lut.max_crosstalk_row_sum(), phi);
  }
  // The 15-MR default comb sustains the 16-bit datapath (Section V-B).
  EXPECT_GE(engine.achievable_resolution_bits(), 16);
}

TEST(BatchedVdpEngine, GemmKernels) {
  numerics::Rng rng(16);
  const auto a = random_matrix(9, 13, rng, -2.0, 2.0);
  const auto b = random_matrix(7, 13, rng, -2.0, 2.0);
  const auto tiled = numerics::matmul_transposed(a, b, 4);
  const auto reference = a.matmul(b.transposed());
  for (std::size_t r = 0; r < tiled.rows(); ++r) {
    for (std::size_t c = 0; c < tiled.cols(); ++c) {
      EXPECT_NEAR(tiled(r, c), reference(r, c), 1e-12);
    }
  }
  const auto sx = numerics::row_abs_max(a);
  ASSERT_EQ(sx.size(), 9u);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double best = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) best = std::max(best, std::abs(a(r, c)));
    EXPECT_EQ(sx[r], best);
  }
  EXPECT_THROW((void)numerics::matmul_transposed(numerics::Matrix(2, 3), numerics::Matrix(2, 4)),
               std::invalid_argument);
}

}  // namespace
