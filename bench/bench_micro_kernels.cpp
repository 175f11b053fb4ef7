// google-benchmark microbenchmarks of the simulator's hot kernels: VDP
// functional simulation (scalar and batched), TED eigen-solve, conv forward,
// and the full architecture evaluation pipeline.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/accelerator.hpp"
#include "core/batched_vdp_engine.hpp"
#include "core/vdp_simulator.hpp"
#include "dnn/conv2d.hpp"
#include "dnn/im2col.hpp"
#include "dnn/models.hpp"
#include "numerics/eigen.hpp"
#include "numerics/gemm.hpp"
#include "numerics/kernels.hpp"
#include "numerics/rng.hpp"
#include "thermal/crosstalk_matrix.hpp"
#include "thermal/ted.hpp"

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

void BM_VdpSimulatorDot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(1);
  std::vector<double> x(n);
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    w[i] = rng.uniform(-1.0, 1.0);
  }
  const core::VdpSimulator sim;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.dot(x, w));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_VdpSimulatorDot)->Arg(15)->Arg(60)->Arg(150);

// --- batched photonic kernels ------------------------------------------------
// The acceptance shape for the batched engine: a dense layer (batch 16,
// 64 -> 10, K = 64) and a conv layer lowered through im2col (batch 16,
// 8 -> 16 channels, 3x3 on 8x8, K = 72). Three implementations:
//   * "Legacy": the seed's per-dot datapath — Microring objects built and
//     imprinted per chunk, transmissions (and the dB extinction floor)
//     re-derived per element. Kept here as the speedup reference.
//   * "Scalar": today's VdpSimulator::dot, one call per output element
//     (LUT-accelerated but unamortized across the GEMM).
//   * "Batched": the whole GEMM on BatchedVdpEngine.

/// Seed-faithful scalar dot (pre-LUT): see git history of vdp_simulator.cpp.
double legacy_vdp_dot(std::span<const double> x, std::span<const double> w,
                      const photonics::WavelengthGrid& grid,
                      const core::VdpSimOptions& opts) {
  double sx = 0.0;
  double sw = 0.0;
  for (double v : x) sx = std::max(sx, std::abs(v));
  for (double v : w) sw = std::max(sw, std::abs(v));
  if (sx == 0.0 || sw == 0.0) return 0.0;
  const photonics::UniformQuantizer quant(opts.resolution_bits);
  const std::size_t bank = opts.mrs_per_bank;

  const auto arm_dot = [&](std::span<const double> a, std::span<const double> wn) {
    const std::size_t n = a.size();
    std::vector<photonics::Microring> ring_bank;
    ring_bank.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      photonics::MicroringDesign design;
      design.resonance_nm = grid.wavelength_nm(i);
      design.q_factor = opts.q_factor;
      design.fsr_nm = opts.fsr_nm;
      photonics::Microring mr(design);
      mr.imprint_weight(wn[i], grid.wavelength_nm(i));
      ring_bank.push_back(mr);
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double power = a[i];
      for (const auto& mr : ring_bank) power *= mr.transmission(grid.wavelength_nm(i));
      sum += power;
    }
    return sum;
  };

  double acc = 0.0;
  for (std::size_t start = 0; start < x.size(); start += bank) {
    const std::size_t len = std::min(bank, x.size() - start);
    std::vector<double> a(len);
    std::vector<double> w_pos(len, 0.0);
    std::vector<double> w_neg(len, 0.0);
    for (std::size_t i = 0; i < len; ++i) {
      const double xv = x[start + i];
      const double wv = w[start + i] * (xv < 0.0 ? -1.0 : 1.0);
      a[i] = quant.quantize(std::abs(xv) / sx);
      const double w_mag = quant.quantize(std::abs(wv) / sw);
      (wv >= 0.0 ? w_pos : w_neg)[i] = w_mag;
    }
    const double partial = arm_dot(a, w_pos) - arm_dot(a, w_neg);
    const double norm = static_cast<double>(len);
    acc += (quant.quantize(std::abs(partial) / norm) * norm) *
           (partial < 0.0 ? -1.0 : 1.0);
  }
  return acc * sx * sw;
}

void BM_PhotonicDenseLegacy(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(4);
  const auto x = random_matrix(batch, 64, rng, -1.0, 1.0);
  const auto w = random_matrix(10, 64, rng, -1.0, 1.0);
  const core::VdpSimOptions opts;
  const photonics::WavelengthGrid grid(opts.mrs_per_bank, opts.fsr_nm,
                                       opts.center_wavelength_nm);
  std::vector<double> xr(64);
  std::vector<double> wr(64);
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < 64; ++i) xr[i] = x(b, i);
      for (std::size_t o = 0; o < 10; ++o) {
        for (std::size_t i = 0; i < 64; ++i) wr[i] = w(o, i);
        sink += legacy_vdp_dot(xr, wr, grid, opts);
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch * 10 * 64));
}
BENCHMARK(BM_PhotonicDenseLegacy)->Arg(16);

void BM_PhotonicDenseScalar(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(4);
  const auto x = random_matrix(batch, 64, rng, -1.0, 1.0);
  const auto w = random_matrix(10, 64, rng, -1.0, 1.0);
  const core::VdpSimulator sim;
  std::vector<double> xr(64);
  std::vector<double> wr(64);
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t i = 0; i < 64; ++i) xr[i] = x(b, i);
      for (std::size_t o = 0; o < 10; ++o) {
        for (std::size_t i = 0; i < 64; ++i) wr[i] = w(o, i);
        sink += sim.dot(xr, wr);
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch * 10 * 64));
}
BENCHMARK(BM_PhotonicDenseScalar)->Arg(1)->Arg(16);

void BM_PhotonicDenseBatched(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(4);
  const auto x = random_matrix(batch, 64, rng, -1.0, 1.0);
  const auto w = random_matrix(10, 64, rng, -1.0, 1.0);
  core::BatchedVdpEngine engine;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.photonic_matmul(x, w));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch * 10 * 64));
}
BENCHMARK(BM_PhotonicDenseBatched)->Arg(1)->Arg(16);

void BM_PhotonicConvScalar(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(5);
  dnn::Conv2dConfig cfg{8, 16, 3, 1, 1};
  dnn::Tensor input({batch, 8, 8, 8});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto w = random_matrix(16, 72, rng, -1.0, 1.0);
  const core::VdpSimulator sim;
  const dnn::Tensor patches = dnn::im2col(input, cfg);
  const std::size_t rows = patches.dim(0);
  std::vector<double> xr(72);
  std::vector<double> wr(72);
  for (auto _ : state) {
    double sink = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t i = 0; i < 72; ++i) xr[i] = patches.at2(r, i);
      for (std::size_t o = 0; o < 16; ++o) {
        for (std::size_t i = 0; i < 72; ++i) wr[i] = w(o, i);
        sink += sim.dot(xr, wr);
      }
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * 16 * 72));
}
BENCHMARK(BM_PhotonicConvScalar)->Arg(1)->Arg(16);

void BM_PhotonicConvBatched(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(5);
  dnn::Conv2dConfig cfg{8, 16, 3, 1, 1};
  dnn::Tensor input({batch, 8, 8, 8});
  for (std::size_t i = 0; i < input.numel(); ++i) {
    input[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  const auto w = random_matrix(16, 72, rng, -1.0, 1.0);
  core::BatchedVdpEngine engine;
  const dnn::Tensor patches = dnn::im2col(input, cfg);
  const std::size_t rows = patches.dim(0);
  numerics::Matrix x(rows, 72);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t i = 0; i < 72; ++i) x(r, i) = patches.at2(r, i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.photonic_matmul(x, w));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(rows * 16 * 72));
}
BENCHMARK(BM_PhotonicConvBatched)->Arg(1)->Arg(16);

// --- ISA-dispatched kernel pairs ---------------------------------------------
// Each hot-loop kernel is benchmarked twice on identical inputs: once pinned
// to the scalar reference table and once through the runtime-dispatched
// table. tools/check_bench_regression.py pairs *_Scalar with *_Dispatch to
// compute per-kernel speedups (and their geomean) and gates CI on them. On
// non-AVX2 hardware the two rows coincide (speedup ~1x).

std::vector<double> random_vector(std::size_t n, numerics::Rng& rng, double lo,
                                  double hi) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(lo, hi);
  return v;
}

void bench_kernel_gemm(benchmark::State& state,
                       const numerics::kernels::KernelTable& kt) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const auto panels = static_cast<std::size_t>(state.range(1));
  numerics::Rng rng(11);
  const auto a = random_vector(k, rng, -1.0, 1.0);
  const auto pack = random_vector(panels * 4 * k, rng, -1.0, 1.0);
  std::vector<double> out(panels * 4);
  for (auto _ : state) {
    kt.gemm_row_panels(a.data(), pack.data(), k, panels, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(k * panels * 4));
}
void BM_KernelGemm_Scalar(benchmark::State& state) {
  bench_kernel_gemm(state, numerics::kernels::scalar_table());
}
void BM_KernelGemm_Dispatch(benchmark::State& state) {
  bench_kernel_gemm(state, numerics::kernels::active_table());
}
BENCHMARK(BM_KernelGemm_Scalar)->Args({256, 16});
BENCHMARK(BM_KernelGemm_Dispatch)->Args({256, 16});

void bench_kernel_abs_max(benchmark::State& state,
                          const numerics::kernels::KernelTable& kt) {
  const auto n = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(12);
  const auto v = random_vector(n, rng, -4.0, 4.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kt.abs_max(v.data(), n));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_KernelAbsMax_Scalar(benchmark::State& state) {
  bench_kernel_abs_max(state, numerics::kernels::scalar_table());
}
void BM_KernelAbsMax_Dispatch(benchmark::State& state) {
  bench_kernel_abs_max(state, numerics::kernels::active_table());
}
BENCHMARK(BM_KernelAbsMax_Scalar)->Arg(4096);
BENCHMARK(BM_KernelAbsMax_Dispatch)->Arg(4096);

std::vector<unsigned char> random_selects(std::size_t n, numerics::Rng& rng) {
  std::vector<unsigned char> sel(n);
  for (auto& s : sel) s = rng.bernoulli(0.5) ? 1 : 0;
  return sel;
}

void bench_kernel_d_row_xtalk(benchmark::State& state,
                              const numerics::kernels::KernelTable& kt) {
  const auto len = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(14);
  const auto carry = random_vector(len * len, rng, 0.2, 1.0);
  const auto idle = random_vector(len * len, rng, 0.2, 1.0);
  const auto sel = random_selects(len, rng);
  std::vector<double> d(len);
  for (auto _ : state) {
    kt.d_row_xtalk(sel.data(), carry.data(), idle.data(), len, d.data());
    benchmark::DoNotOptimize(d.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(len * len));
}
void BM_KernelDRowXtalk_Scalar(benchmark::State& state) {
  bench_kernel_d_row_xtalk(state, numerics::kernels::scalar_table());
}
void BM_KernelDRowXtalk_Dispatch(benchmark::State& state) {
  bench_kernel_d_row_xtalk(state, numerics::kernels::active_table());
}
BENCHMARK(BM_KernelDRowXtalk_Scalar)->Arg(15);
BENCHMARK(BM_KernelDRowXtalk_Dispatch)->Arg(15);

void bench_kernel_d_row_diag(benchmark::State& state,
                             const numerics::kernels::KernelTable& kt) {
  const auto len = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(13);
  const auto carry = random_vector(len, rng, 0.2, 1.0);
  const auto idle = random_vector(len, rng, 0.2, 1.0);
  const auto sel = random_selects(len, rng);
  std::vector<double> d(len);
  for (auto _ : state) {
    kt.d_row_diag(sel.data(), carry.data(), idle.data(), len, d.data());
    benchmark::DoNotOptimize(d.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(len));
}
void BM_KernelDRowDiag_Scalar(benchmark::State& state) {
  bench_kernel_d_row_diag(state, numerics::kernels::scalar_table());
}
void BM_KernelDRowDiag_Dispatch(benchmark::State& state) {
  bench_kernel_d_row_diag(state, numerics::kernels::active_table());
}
BENCHMARK(BM_KernelDRowDiag_Scalar)->Arg(15);
BENCHMARK(BM_KernelDRowDiag_Dispatch)->Arg(15);

void bench_kernel_hash_gaussian_n(benchmark::State& state,
                                  const numerics::kernels::KernelTable& kt) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  std::uint64_t base = 0;
  for (auto _ : state) {
    kt.hash_gaussian_n(0xFEEDFACE, base, n, out.data());
    base += n;
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
void BM_KernelHashGaussianN_Scalar(benchmark::State& state) {
  bench_kernel_hash_gaussian_n(state, numerics::kernels::scalar_table());
}
void BM_KernelHashGaussianN_Dispatch(benchmark::State& state) {
  bench_kernel_hash_gaussian_n(state, numerics::kernels::active_table());
}
BENCHMARK(BM_KernelHashGaussianN_Scalar)->Arg(4096);
BENCHMARK(BM_KernelHashGaussianN_Dispatch)->Arg(4096);

void BM_TiledGemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  numerics::Rng rng(6);
  const auto a = random_matrix(n, n, rng, -1.0, 1.0);
  const auto b = random_matrix(n, n, rng, -1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::matmul_transposed(a, b));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_TiledGemm)->Arg(64)->Arg(128);

void BM_TedSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto coupling = thermal::coupling_matrix_exponential(n, 5.0);
  const thermal::TedTuner tuner(coupling);
  numerics::Rng rng(2);
  numerics::Vector targets(n);
  for (std::size_t i = 0; i < n; ++i) targets[i] = rng.uniform(0.1, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.solve(targets).total_power_mw);
  }
}
BENCHMARK(BM_TedSolve)->Arg(10)->Arg(15)->Arg(30);

void BM_EigenSymmetric(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = thermal::coupling_matrix_exponential(n, 5.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numerics::eigen_symmetric(m).eigenvalues.sum());
  }
}
BENCHMARK(BM_EigenSymmetric)->Arg(10)->Arg(20)->Arg(40);

void BM_Conv2dForward(benchmark::State& state) {
  numerics::Rng rng(3);
  dnn::Conv2d conv(dnn::Conv2dConfig{8, 16, 3, 1, 1}, rng);
  dnn::Tensor x({1, 8, 16, 16});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false).sum());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_EvaluateModelOnAccelerator(benchmark::State& state) {
  const core::CrossLightAccelerator accel(core::best_config());
  const auto model = dnn::cnn_cifar10_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(accel.evaluate(model).epb_pj());
  }
}
BENCHMARK(BM_EvaluateModelOnAccelerator);

void BM_MapModel(benchmark::State& state) {
  const auto cfg = core::best_config();
  const auto model = dnn::siamese_omniglot_spec();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::map_model(model, cfg).total_passes);
  }
}
BENCHMARK(BM_MapModel);

}  // namespace

// Custom main: default to machine-readable JSON alongside the console
// reporter (BENCH_micro_kernels.json) so the perf trajectory is tracked
// across PRs. Any explicit --benchmark_out= flag overrides the default.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string default_out = "--benchmark_out=BENCH_micro_kernels.json";
  std::string default_fmt = "--benchmark_out_format=json";
  bool has_out = false;
  bool has_fmt = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
    if (std::string(argv[i]).rfind("--benchmark_out_format", 0) == 0) has_fmt = true;
  }
  // Only default when the user manages neither flag: pairing the default
  // .json file with an explicit non-json format would corrupt it.
  if (!has_out && !has_fmt) {
    args.push_back(default_out.data());
    args.push_back(default_fmt.data());
  }
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
