// xl::exec executor tests: canonical tile decomposition, exactly-once
// execution, lane discipline, nesting, and the headline acceptance
// criterion — engine results bit-identical across pool widths {1, 2, 8}
// for every effect set and batch shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/batched_vdp_engine.hpp"
#include "exec/exec.hpp"
#include "numerics/gemm.hpp"
#include "numerics/rng.hpp"

namespace {

using namespace xl;

/// Run parallel_for and collect the invoked (i0, i1) tiles, order-free.
std::set<std::pair<std::size_t, std::size_t>> collect_tiles(std::size_t begin,
                                                            std::size_t end,
                                                            std::size_t grain) {
  std::mutex mutex;
  std::set<std::pair<std::size_t, std::size_t>> tiles;
  exec::parallel_for(begin, end, grain,
                     [&](std::size_t i0, std::size_t i1, std::size_t) {
                       std::lock_guard<std::mutex> lock(mutex);
                       tiles.emplace(i0, i1);
                     });
  return tiles;
}

TEST(TaskPool, TileDecompositionIsCanonical) {
  // With an explicit grain the tile set is a pure function of (range,
  // grain): every pool width must invoke exactly the same tiles.
  const std::size_t begin = 3, end = 103, grain = 7;
  std::set<std::pair<std::size_t, std::size_t>> expected;
  for (std::size_t t0 = begin; t0 < end; t0 += grain) {
    expected.emplace(t0, std::min(end, t0 + grain));
  }
  for (std::size_t lanes : {1u, 2u, 8u}) {
    exec::ScopedPool scoped(lanes);
    EXPECT_EQ(collect_tiles(begin, end, grain), expected)
        << "width " << lanes << " deviated from the canonical tile set";
  }
}

TEST(TaskPool, EveryIndexRunsExactlyOnce) {
  for (std::size_t lanes : {1u, 2u, 8u}) {
    exec::ScopedPool scoped(lanes);
    for (std::size_t grain : {0u, 1u, 3u, 1000u}) {
      const std::size_t n = 977;  // Prime: never divides evenly into tiles.
      std::vector<std::atomic<int>> hits(n);
      exec::parallel_for(0, n, grain,
                         [&](std::size_t i0, std::size_t i1, std::size_t) {
                           for (std::size_t i = i0; i < i1; ++i) {
                             hits[i].fetch_add(1, std::memory_order_relaxed);
                           }
                         });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1)
            << "index " << i << " at width " << lanes << " grain " << grain;
      }
    }
  }
}

TEST(TaskPool, EmptyAndDegenerateRangesAreSafe) {
  exec::ScopedPool scoped(4);
  std::atomic<int> calls{0};
  exec::parallel_for(5, 5, 1,
                     [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0) << "empty range must invoke nothing";
  exec::parallel_for(7, 8, 3, [&](std::size_t i0, std::size_t i1, std::size_t) {
    ++calls;
    EXPECT_EQ(i0, 7u);
    EXPECT_EQ(i1, 8u);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(TaskPool, LaneIdsStayWithinWidth) {
  const std::size_t lanes = 4;
  exec::ScopedPool scoped(lanes);
  std::mutex mutex;
  std::set<std::size_t> seen;
  exec::parallel_for(0, 4096, 1,
                     [&](std::size_t, std::size_t, std::size_t lane) {
                       std::lock_guard<std::mutex> lock(mutex);
                       seen.insert(lane);
                     });
  ASSERT_FALSE(seen.empty());
  EXPECT_LT(*seen.rbegin(), lanes);
  // The caller takes tile 0 before it publishes the job, so lane 0 always
  // participates.
  EXPECT_EQ(*seen.begin(), 0u);
}

TEST(TaskPool, NestedParallelForRunsInlineUnderEnclosingLane) {
  exec::ScopedPool scoped(4);
  std::atomic<int> mismatches{0};
  std::vector<std::atomic<int>> inner_hits(64);
  exec::parallel_for(0, 8, 1,
                     [&](std::size_t i0, std::size_t, std::size_t outer_lane) {
                       exec::parallel_for(
                           0, 8, 1,
                           [&](std::size_t j0, std::size_t, std::size_t lane) {
                             if (lane != outer_lane) ++mismatches;
                             inner_hits[i0 * 8 + j0].fetch_add(1);
                           });
                     });
  EXPECT_EQ(mismatches.load(), 0)
      << "nested tiles must run inline under the enclosing lane";
  for (std::size_t i = 0; i < inner_hits.size(); ++i) {
    EXPECT_EQ(inner_hits[i].load(), 1) << "nested index " << i;
  }
}

TEST(TaskPool, ConcurrentCallersShareOnePool) {
  // Several submitters on one pool: job slots are recycled while other
  // callers' jobs are live, and workers may enter a slot between two of
  // its jobs. Every index of every call still runs exactly once.
  exec::TaskPool pool(4);
  constexpr std::size_t kCallers = 6;
  constexpr std::size_t kCalls = 300;
  constexpr std::size_t kN = 97;
  struct Call {
    std::vector<std::atomic<int>> hits = std::vector<std::atomic<int>>(kN);
    std::atomic<int> bad_lanes{0};
  };
  std::atomic<int> failures{0};
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      Call call;
      for (std::size_t i = 0; i < kCalls; ++i) {
        for (auto& hit : call.hits) hit.store(0, std::memory_order_relaxed);
        pool.parallel_for(
            0, kN, 1 + i % 5,
            [](void* ctx, std::size_t i0, std::size_t i1, std::size_t lane) {
              Call& state = *static_cast<Call*>(ctx);
              if (lane >= 4) ++state.bad_lanes;
              for (std::size_t j = i0; j < i1; ++j) {
                // Yield mid-tile so a caller that returned before every
                // worker left its job would see a hit still missing.
                std::this_thread::yield();
                state.hits[j].fetch_add(1, std::memory_order_relaxed);
              }
            },
            &call);
        for (const auto& hit : call.hits) {
          if (hit.load(std::memory_order_relaxed) != 1) ++failures;
        }
      }
      failures += call.bad_lanes.load();
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(TaskPool, ScopedPoolOverridesAndRestoresWidth) {
  const std::size_t outside = exec::width();
  {
    exec::ScopedPool scoped(3);
    EXPECT_EQ(exec::width(), 3u);
    {
      exec::ScopedPool inner(2);
      EXPECT_EQ(exec::width(), 2u);
    }
    EXPECT_EQ(exec::width(), 3u);
  }
  EXPECT_EQ(exec::width(), outside);
}

// --- bit-identity across widths (the acceptance criterion) ------------------

numerics::Matrix random_matrix(std::size_t rows, std::size_t cols,
                               numerics::Rng& rng) {
  numerics::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

void expect_matrices_bit_identical(const numerics::Matrix& a,
                                   const numerics::Matrix& b,
                                   const std::string& context) {
  ASSERT_EQ(a.rows(), b.rows()) << context;
  ASSERT_EQ(a.cols(), b.cols()) << context;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      // EXPECT_EQ on doubles is exact — the contract is bit-identity, not
      // tolerance.
      ASSERT_EQ(a(r, c), b(r, c)) << context << " at (" << r << "," << c << ")";
    }
  }
}

TEST(TaskPool, GemmBitIdenticalAcrossWidths) {
  numerics::Rng rng(2024);
  const auto a = random_matrix(37, 53, rng);
  const auto b = random_matrix(29, 53, rng);
  numerics::Matrix reference;
  {
    exec::ScopedPool scoped(1);
    reference = numerics::matmul_transposed(a, b, 8);
  }
  for (std::size_t lanes : {2u, 8u}) {
    exec::ScopedPool scoped(lanes);
    const numerics::Matrix wide = numerics::matmul_transposed(a, b, 8);
    expect_matrices_bit_identical(reference, wide,
                                  "gemm width " + std::to_string(lanes));
  }
}

TEST(TaskPool, EngineLogitsBitIdenticalAcrossWidthsEffectsAndShapes) {
  // Every effect set x batch shape x pool width must produce the exact
  // same bytes as the width-1 run: tile decomposition is canonical and
  // noise is operand-keyed, so threading cannot leak into values.
  struct EffectCase {
    const char* name;
    core::VdpSimOptions opts;
  };
  std::vector<EffectCase> cases;
  {
    EffectCase ideal{"ideal", {}};
    ideal.opts.model_crosstalk = false;
    cases.push_back(ideal);
    EffectCase crosstalk{"crosstalk", {}};  // Default datapath.
    cases.push_back(crosstalk);
    EffectCase all{"thermal+fpv+noise+crosstalk", {}};
    all.opts.effects.thermal = true;
    all.opts.effects.fpv = true;
    all.opts.effects.noise = true;
    cases.push_back(all);
  }
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {1, 33},   // Lone sample: the single-request serving shape.
      {5, 37},   // Small ragged batch.
      {33, 70},  // Multiple 32-row tiles + tail, multiple output tiles.
  };
  numerics::Rng rng(7);
  for (const EffectCase& ec : cases) {
    for (const auto& [batch, k] : shapes) {
      const auto x = random_matrix(batch, k, rng);
      const auto w = random_matrix(40, k, rng);
      numerics::Matrix reference;
      {
        exec::ScopedPool scoped(1);
        core::BatchedVdpEngine engine(ec.opts);
        reference = engine.photonic_matmul(x, w);
      }
      for (std::size_t lanes : {2u, 8u}) {
        exec::ScopedPool scoped(lanes);
        // Fresh engine per width: identical boot state for every run.
        core::BatchedVdpEngine engine(ec.opts);
        const numerics::Matrix wide = engine.photonic_matmul(x, w);
        expect_matrices_bit_identical(
            reference, wide,
            std::string(ec.name) + " batch=" + std::to_string(batch) +
                " k=" + std::to_string(k) + " width=" + std::to_string(lanes));
      }
    }
  }
}

}  // namespace
