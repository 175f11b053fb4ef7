// Batched photonic execution engine tests: per-element parity with the
// scalar VdpSimulator path and the independent reference, the mixed-sign
// (on-the-fly D) path, determinism across executor widths, and work
// accounting, including the exact host-work counters' closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "core/effect_pipeline.hpp"
#include "core/vdp_simulator.hpp"
#include "exec/task_pool.hpp"
#include "numerics/arena.hpp"
#include "numerics/gemm.hpp"
#include "numerics/rng.hpp"
#include "photonics/microring.hpp"
#include "vdp_reference.hpp"

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
      // The shared datapath code makes it exact.
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

/// Planned-overload harness: one engine, its packed weights, and an arena
/// holding the table cache, as ExecutionPlan lays them out.
struct PlannedGemm {
  PlannedGemm(core::BatchedVdpEngine& e, const std::vector<float>& w,
              std::size_t outputs, std::size_t k, std::size_t max_batch)
      : engine(e),
        packed(e.pack_weights(w.data(), outputs, k)),
        arena(e.matmul_workspace_bytes(max_batch, k) +
              (outputs + 1) * e.gemm_table_elems(k) * sizeof(double) + 4096) {
    const std::size_t te = e.gemm_table_elems(k);
    tables.carry = arena.make_span<double>(outputs * te);
    tables.idle = arena.make_span<double>(te);
  }
  std::vector<double> run(const float* x, std::size_t batch) {
    std::vector<double> y(batch * packed.outputs);
    engine.photonic_matmul(x, batch, packed.k, packed, y.data(), arena, tables);
    return y;
  }
  core::BatchedVdpEngine& engine;
  core::PackedGemmWeights packed;
  numerics::Arena arena;
  core::GemmTableCache tables;
};

// A table cache sized for another GEMM shape is rejected before the call
// takes any workspace, so the caller's arena is not left bumped.
TEST(BatchedVdpEngine, MisSizedTableCacheThrowsWithoutBumpingTheArena) {
  const std::size_t outputs = 6;
  const std::size_t k = 20;
  const std::size_t batch = 3;
  numerics::Rng rng(23);
  std::vector<float> w(outputs * k);
  std::vector<float> x(batch * k);
  for (float& v : w) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  core::BatchedVdpEngine engine;
  PlannedGemm gemm(engine, w, outputs, k, batch);
  gemm.tables.idle = gemm.tables.idle.first(gemm.tables.idle.size() - 1);
  const std::size_t used = gemm.arena.stats().used_bytes;
  EXPECT_THROW((void)gemm.run(x.data(), batch), std::invalid_argument);
  EXPECT_EQ(gemm.arena.stats().used_bytes, used);
}

xl::testing::VdpReference reference_for(const core::VdpSimOptions& opts) {
  const photonics::WavelengthGrid grid(opts.mrs_per_bank, opts.fsr_nm,
                                       opts.center_wavelength_nm);
  return {grid, opts.q_factor, photonics::MicroringDesign{}.extinction_ratio_db,
          opts.resolution_bits};
}

// Rows mix sign-free chunks (cached D) with chunks holding a negative
// activation (D formed on the fly). Every row of every batch shape, at every
// executor width, equals a solo-row call and the independent reference.
TEST(BatchedVdpEngine, MixedSignTilesMatchSoloRowsAndReference) {
  core::VdpSimOptions opts;
  opts.effects = core::EffectConfig::parse("all");
  const std::size_t k = 50;  // Chunks of 15, 15, 15, 5.
  const std::size_t outputs = 35;
  const std::size_t batch = 37;
  numerics::Rng rng(21);
  std::vector<float> x(batch * k);
  std::vector<float> w(outputs * k);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t i = 0; i < k; ++i) {
      // Row b holds negatives only in chunk b % 5 (none when it is 4).
      const bool negative_ok = i / 15 == b % 5 && rng.bernoulli(0.4);
      x[b * k + i] = static_cast<float>(rng.uniform(negative_ok ? -1.0 : 0.0, 1.0));
    }
  }
  for (float& v : w) v = rng.bernoulli(0.1) ? 0.0F : static_cast<float>(rng.uniform(-1.0, 1.0));

  const xl::testing::VdpReference ref = reference_for(opts);
  std::vector<double> want(batch * outputs);
  {
    core::BatchedVdpEngine engine(opts);
    const photonics::VdpEffects* fx = engine.effects().vdp_effects();
    const bool crosstalk = engine.effects().crosstalk();
    std::vector<double> xr(k);
    std::vector<double> wr(k);
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < k; ++i) xr[i] = x[b * k + i];
      for (std::size_t o = 0; o < outputs; ++o) {
        for (std::size_t i = 0; i < k; ++i) wr[i] = w[o * k + i];
        want[b * outputs + o] = ref.dot(xr, wr, crosstalk, fx);
      }
    }
    // Solo-row calls: batch 1, fresh table cache each time.
    for (std::size_t b = 0; b < batch; ++b) {
      PlannedGemm solo(engine, w, outputs, k, 1);
      const std::vector<double> y = solo.run(x.data() + b * k, 1);
      for (std::size_t o = 0; o < outputs; ++o) {
        ASSERT_EQ(y[o], want[b * outputs + o]) << "solo b=" << b << " o=" << o;
      }
    }
  }
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
    const exec::ScopedPool pool(lanes);
    core::BatchedVdpEngine engine(opts);
    PlannedGemm gemm(engine, w, outputs, k, batch);
    // Whole batch (cold tables), then the same rows in ragged slices (warm).
    for (const std::size_t slice : {batch, std::size_t{1}, std::size_t{5}, std::size_t{32}}) {
      for (std::size_t b0 = 0; b0 < batch; b0 += slice) {
        const std::size_t rows = std::min(slice, batch - b0);
        const std::vector<double> y = gemm.run(x.data() + b0 * k, rows);
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t o = 0; o < outputs; ++o) {
            ASSERT_EQ(y[r * outputs + o], want[(b0 + r) * outputs + o])
                << "lanes=" << lanes << " slice=" << slice << " b=" << b0 + r
                << " o=" << o;
          }
        }
      }
    }
  }
}

// The exact work counters follow closed forms in (B, O, k) and the sign
// pattern, for a cold and a warm table cache, at any executor width.
TEST(BatchedVdpEngine, WorkCountersFollowClosedForms) {
  core::VdpSimOptions opts;
  opts.effects = core::EffectConfig::parse("crosstalk,noise");
  const std::size_t bsz = 6;
  const std::size_t outputs = 5;
  const std::size_t k = 50;  // n = 15: chunks of 15, 15, 15, 5.
  const std::size_t chunks = 4;
  const auto products = [](std::size_t len) { return 2 * len * (len - 1); };
  const std::size_t row_products = 3 * products(15) + products(5);
  numerics::Rng rng(5);
  std::vector<float> x(bsz * k);
  std::vector<float> w(outputs * k);
  for (float& v : x) v = static_cast<float>(rng.uniform(0.1, 1.0));
  for (float& v : w) v = static_cast<float>(rng.uniform(0.1, 1.0) * (rng.bernoulli(0.5) ? -1 : 1));
  std::vector<float> mixed = x;
  mixed[0 * k + 20] = -0.5F;  // Row 0, chunk 1.
  mixed[0 * k + 47] = -0.5F;  // Row 0, chunk 3.
  mixed[3 * k + 2] = -0.5F;   // Row 3, chunk 0.
  const std::size_t mixed_products = outputs * (products(15) + products(5) + products(15));
  const std::size_t keys_per_call = bsz * k + 2 * bsz * outputs * chunks;

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{8}}) {
    const exec::ScopedPool pool(lanes);
    core::BatchedVdpEngine engine(opts);
    PlannedGemm gemm(engine, w, outputs, k, bsz);
    (void)gemm.run(x.data(), bsz);  // Cold: tables and D rows built.
    EXPECT_EQ(engine.stats().table_rows_built, outputs);
    EXPECT_EQ(engine.stats().transmission_products, outputs * row_products);
    EXPECT_EQ(engine.stats().noise_keys, keys_per_call);
    (void)gemm.run(x.data(), bsz);  // Warm, sign-free: no D products at all.
    EXPECT_EQ(engine.stats().table_rows_built, outputs);
    EXPECT_EQ(engine.stats().transmission_products, outputs * row_products);
    EXPECT_EQ(engine.stats().noise_keys, 2 * keys_per_call);
    (void)gemm.run(mixed.data(), bsz);  // Warm, mixed: only the mixed chunks.
    EXPECT_EQ(engine.stats().table_rows_built, outputs);
    EXPECT_EQ(engine.stats().transmission_products,
              outputs * row_products + mixed_products);
    EXPECT_EQ(engine.stats().noise_keys, 3 * keys_per_call);

    // The Matrix overload packs and builds every call: always cold.
    engine.reset_stats();
    numerics::Matrix xm(bsz, k);
    numerics::Matrix wm(outputs, k);
    for (std::size_t i = 0; i < bsz * k; ++i) xm(i / k, i % k) = mixed[i];
    for (std::size_t i = 0; i < outputs * k; ++i) wm(i / k, i % k) = w[i];
    (void)engine.photonic_matmul(xm, wm);
    EXPECT_EQ(engine.stats().table_rows_built, outputs);
    EXPECT_EQ(engine.stats().transmission_products,
              outputs * row_products + mixed_products);
    EXPECT_EQ(engine.stats().noise_keys, keys_per_call);
  }

  // Without noise no key is hashed; without crosstalk no D product is formed.
  core::VdpSimOptions quiet;
  quiet.model_crosstalk = false;
  core::BatchedVdpEngine engine(quiet);
  PlannedGemm gemm(engine, w, outputs, k, bsz);
  (void)gemm.run(mixed.data(), bsz);
  EXPECT_EQ(engine.stats().table_rows_built, outputs);
  EXPECT_EQ(engine.stats().transmission_products, 0U);
  EXPECT_EQ(engine.stats().noise_keys, 0U);
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
