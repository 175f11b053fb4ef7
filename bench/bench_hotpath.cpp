// bench_hotpath — the zero-allocation steady-state contract of the planned
// engine, tracked per PR as BENCH_hotpath.json.
//
// The shard inner loop in isolation, over the Table I proxy MLP with the
// full effect stack: {reset_effects; infer_views} over a fixed max-batch of
// samples on the cached ExecutionPlan, under the operator-new interposer
// (numerics/alloc_counter.hpp) after one warm-up iteration. The contract is
// EXACTLY zero heap allocations per request and zero arena regrows in steady
// state, and the same logits as infer_batch. End-to-end serving latency
// (submit, queue and service time) is measured by xlbench's serve-open
// workload.
//
// The JSON carries a top-level "metrics" object gated by
// tools/check_bench_regression.py against bench/baselines/BENCH_hotpath.json;
// "allocs_per_request" is hard-gated to zero regardless of baseline.
//
// Exit status: non-zero when a steady-state allocation or arena regrow is
// observed, or the logits diverge from infer_batch.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "core/effects.hpp"
#include "core/execution_plan.hpp"
#include "core/photonic_inference.hpp"
#include "dnn/models.hpp"
#include "numerics/alloc_counter.hpp"
#include "numerics/rng.hpp"

namespace {

using xl::core::PhotonicInferenceEngine;
using xl::core::RowViewIn;
using xl::core::RowViewOut;
using xl::core::VdpSimOptions;
using xl::dnn::Tensor;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kEngineIters = 60;

double elapsed_us(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

xl::dnn::Network make_proxy() {
  xl::numerics::Rng rng(21);
  return xl::dnn::build_table1_proxy_mlp(rng);
}

VdpSimOptions full_effects_vdp() {
  VdpSimOptions vdp;
  vdp.effects = xl::core::EffectConfig::parse("all");
  return vdp;
}

Tensor make_batch(std::size_t rows) {
  Tensor x({rows, 1, 12, 12});
  xl::numerics::Rng rng(5);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return x;
}

struct EngineResult {
  double us_per_batch = 0.0;
  double allocs_per_request = 0.0;
  std::size_t arena_regrows = 0;
  Tensor last_logits;
  Tensor infer_batch_logits;  ///< The same batch through infer_batch.
};

EngineResult run_engine(const Tensor& batch) {
  xl::dnn::Network net = make_proxy();
  PhotonicInferenceEngine engine(net, full_effects_vdp());
  EngineResult r;
  r.infer_batch_logits = engine.infer_batch(batch);
  engine.prepare_plan(batch.shape(), kMaxBatch);

  r.last_logits = Tensor({batch.dim(0), engine.plan()->output_numel()});
  const RowViewIn in{batch.data(), batch.dim(0)};
  const RowViewOut out{r.last_logits.data(), batch.dim(0)};

  // Warm-up: the first execution may grow lazily initialized per-lane
  // scratch; everything after it must be allocation-free.
  engine.engine().reset_effects();
  engine.infer_views({&in, 1}, {&out, 1});

  xl::numerics::allocs::reset();
  xl::numerics::allocs::set_counting(true);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kEngineIters; ++i) {
    engine.engine().reset_effects();
    engine.infer_views({&in, 1}, {&out, 1});
  }
  r.us_per_batch = elapsed_us(t0, Clock::now()) / kEngineIters;
  xl::numerics::allocs::set_counting(false);
  r.allocs_per_request =
      static_cast<double>(xl::numerics::allocs::total()) /
      static_cast<double>(kEngineIters);
  r.arena_regrows = engine.plan()->arena_stats().regrows;
  return r;
}

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xl;
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_hotpath.json";

  // --- Engine-level steady state -----------------------------------------
  const Tensor batch = make_batch(kMaxBatch);
  const EngineResult planned = run_engine(batch);
  const bool engine_identical =
      bit_identical(planned.infer_batch_logits, planned.last_logits);
  const bool pass = engine_identical && planned.allocs_per_request == 0.0 &&
                   planned.arena_regrows == 0;

  std::printf("engine (batch %zu, full effects, %zu iters):\n", kMaxBatch,
              kEngineIters);
  std::printf("  planned : %8.1f us/batch | %.0f allocs/request | "
              "%zu arena regrows\n",
              planned.us_per_batch, planned.allocs_per_request,
              planned.arena_regrows);
  std::printf("  logits bit-identical to infer_batch: %s\n",
              engine_identical ? "yes" : "NO");

  // --- JSON ---------------------------------------------------------------
  api::JsonWriter writer;
  writer.field("bench", "hotpath");
  writer.field("model", "table1-proxy-mlp");
  writer.field("effects", "all");
  writer.field("max_batch", kMaxBatch);
  writer.field("engine_iters", kEngineIters);
  writer.field("engine_us_per_batch_planned", planned.us_per_batch);
  writer.field("engine_logits_bit_identical", engine_identical);
  writer.field("arena_regrows_steady_state", planned.arena_regrows);
  // Gated metric: the hard-zero allocation count (see
  // tools/check_bench_regression.py).
  writer.begin_object("metrics");
  writer.field("allocs_per_request", planned.allocs_per_request);
  writer.end_object();

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << writer.finish();
  std::printf("\nwrote %s\n", out_path.c_str());
  if (!pass) std::printf("FAIL: hot-path contract violated (see above)\n");
  return pass ? 0 : 1;
}
