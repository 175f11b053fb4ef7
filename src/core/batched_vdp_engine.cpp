#include "core/batched_vdp_engine.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/effect_pipeline.hpp"
#include "exec/exec.hpp"
#include "numerics/gemm.hpp"
#include "photonics/crosstalk.hpp"

namespace xl::core {

namespace {
/// Output tile edge: 32x32 pairs keep the per-sample activation row and the
/// per-output detuning row hot in cache while giving the executor enough
/// tiles to balance.
constexpr std::size_t kTile = 32;

/// Arena span granularity (matches Arena's 64-byte bump alignment).
std::size_t round64(std::size_t bytes) {
  return (bytes + 63U) & ~static_cast<std::size_t>(63U);
}
}  // namespace

BatchedVdpEngine::BatchedVdpEngine(const VdpSimOptions& opts)
    : opts_(opts), sim_(opts) {}

const EffectPipeline& BatchedVdpEngine::effects() const noexcept {
  return sim_.effects();
}

void BatchedVdpEngine::advance_effects(double dt_us) { sim_.effects().advance(dt_us); }

void BatchedVdpEngine::reset_effects() { sim_.effects().reset(); }

numerics::Matrix BatchedVdpEngine::exact_matmul(const numerics::Matrix& x,
                                                const numerics::Matrix& w) {
  return numerics::matmul_transposed(x, w);
}

numerics::Matrix BatchedVdpEngine::photonic_matmul(const numerics::Matrix& x,
                                                   const numerics::Matrix& w) {
  if (x.cols() != w.cols()) {
    throw std::invalid_argument("BatchedVdpEngine::photonic_matmul: K mismatch");
  }
  const std::size_t batch = x.rows();
  const std::size_t outputs = w.rows();
  const std::size_t k = x.cols();
  numerics::Matrix y(batch, outputs);
  if (batch == 0 || outputs == 0) return y;

  // Pack, then run the planned implementation on a fresh table cache.
  const PackedGemmWeights packed = pack(w.row(0).data(), outputs, k);
  const std::size_t te = gemm_table_elems(k);
  numerics::Arena arena(matmul_workspace_bytes(batch, k) +
                        round64((outputs + 1) * te * sizeof(double)) + 64);
  GemmTableCache tables;
  tables.carry = arena.make_span<double>(outputs * te);
  tables.idle = arena.make_span<double>(te);
  gemm(x.row(0).data(), batch, k, packed, &y(0, 0), arena, tables);
  return y;
}

PackedGemmWeights BatchedVdpEngine::pack_weights(const float* w, std::size_t outputs,
                                                 std::size_t k) const {
  return pack(w, outputs, k);
}

template <class T>
PackedGemmWeights BatchedVdpEngine::pack(const T* w, std::size_t outputs,
                                         std::size_t k) const {
  const auto& lut = sim_.lut();
  const std::size_t nchunks = lut.chunks(k);
  PackedGemmWeights packed;
  packed.outputs = outputs;
  packed.k = k;
  packed.sw = numerics::Vector(outputs);
  packed.det.resize(outputs * k);
  packed.neg.resize(outputs * k);
  packed.zero.resize(outputs * k);
  packed.key.resize(outputs * nchunks);
  for (std::size_t o = 0; o < outputs; ++o) {
    packed.sw[o] = lut.pack_weight_row(
        w + o * k, k, packed.det.data() + o * k, packed.neg.data() + o * k,
        packed.zero.data() + o * k, packed.key.data() + o * nchunks);
  }
  return packed;
}

std::size_t BatchedVdpEngine::matmul_workspace_bytes(std::size_t batch,
                                                     std::size_t k) const {
  const std::size_t nchunks = sim_.lut().chunks(k);
  return round64(batch * sizeof(double)) +                    // sx
         round64(batch * k * sizeof(double)) +                // a_mag
         round64(batch * k * sizeof(unsigned char)) +         // x_neg
         round64(batch * nchunks * sizeof(unsigned char)) +   // x_mixed
         round64(batch * nchunks * sizeof(std::uint64_t));    // x_key
}

std::size_t BatchedVdpEngine::gemm_table_elems(std::size_t k) const {
  return sim_.lut().arm_table_elems(k, sim_.effects().crosstalk()) + k;
}

std::vector<std::unique_ptr<xl::photonics::VdpScratch>>&
BatchedVdpEngine::thread_pool() {
  // One scratch entry per executor lane that can run tiles (lane ids are
  // always < width()).
  const std::size_t want = exec::width();
  while (thread_scratch_.size() < want) {
    thread_scratch_.push_back(std::make_unique<xl::photonics::VdpScratch>());
  }
  return thread_scratch_;
}

void BatchedVdpEngine::warm_thread_scratch(std::size_t max_k) {
  for (auto& entry : thread_pool()) sim_.lut().fit_scratch(*entry, max_k);
}

void BatchedVdpEngine::photonic_matmul(const float* x, std::size_t batch,
                                       std::size_t k, const PackedGemmWeights& w,
                                       double* y, numerics::Arena& workspace,
                                       GemmTableCache& tables) {
  if (w.k != k) {
    throw std::invalid_argument("BatchedVdpEngine::photonic_matmul: K mismatch");
  }
  gemm(x, batch, k, w, y, workspace, tables);
}

template <class T>
void BatchedVdpEngine::gemm(const T* x, std::size_t batch, std::size_t k,
                            const PackedGemmWeights& w, double* y,
                            numerics::Arena& workspace, GemmTableCache& tables) {
  const std::size_t outputs = w.outputs;
  // Skipped rows and columns stay exact zeros.
  std::fill(y, y + batch * outputs, 0.0);
  if (batch == 0 || outputs == 0) return;

  stats_.matmuls += 1;
  stats_.dot_products += batch * outputs;
  stats_.macs += batch * outputs * k;
  stats_.max_batch_rows = std::max(stats_.max_batch_rows, batch);
  if (k == 0) return;

  const auto& lut = sim_.lut();
  // The effect pipeline renders thermal/FPV drifts, PD noise, and the
  // crosstalk flag once per matmul; every tile reads the same frozen view.
  const bool crosstalk = sim_.effects().crosstalk();
  const xl::photonics::VdpEffects* fx = sim_.effects().vdp_effects();
  const bool noisy = fx != nullptr && fx->active() && fx->noise_std > 0.0;
  const std::size_t nchunks = lut.chunks(k);

  const std::size_t arm = lut.arm_table_elems(k, crosstalk);
  const std::size_t te = arm + k;
  if (tables.idle.size() != te || tables.carry.size() != outputs * te) {
    throw std::invalid_argument(
        "BatchedVdpEngine::photonic_matmul: GemmTableCache sized for a "
        "different GEMM shape (size with gemm_table_elems)");
  }

  // Activation-side tables, once per (sample, element) and per (sample,
  // chunk), live in the caller's arena for the duration of this call only;
  // rewinding keeps the arena's steady-state usage flat.
  const numerics::Arena::Marker marker = workspace.mark();
  const std::span<double> sx = workspace.make_span<double>(batch);
  const std::span<double> a_mag = workspace.make_span<double>(batch * k);
  const std::span<unsigned char> x_neg = workspace.make_span<unsigned char>(batch * k);
  const std::span<unsigned char> x_mixed =
      workspace.make_span<unsigned char>(batch * nchunks);
  const std::span<std::uint64_t> x_key =
      workspace.make_span<std::uint64_t>(batch * nchunks);
  for (std::size_t b = 0; b < batch; ++b) {
    // A zero row contributes exact zeros; its tables stay unread.
    sx[b] = lut.pack_activation_row(x + b * k, k, a_mag.data() + b * k,
                                    x_neg.data() + b * k,
                                    x_mixed.data() + b * nchunks,
                                    noisy ? x_key.data() + b * nchunks : nullptr);
  }

  // Cached tables: every ring's two achievable operating points under the
  // frozen effect frame (carrying its imprint detuning vs parked idle), and
  // each output's sign-free D row, the Eq. 8 crosstalk products. They
  // depend on the weight rows and the drift frame only — not on the
  // activations — and a rendered frame is a pure function of the pipeline's
  // simulated time, so the cache revalidates by time stamp: static
  // pipelines stamp 0.0 and hit forever; time-dependent ones rebuild
  // exactly when the frame has actually moved.
  const double frame_stamp =
      sim_.effects().time_dependent() ? sim_.effects().time_us() : 0.0;
  const bool rebuild_tables = tables.stamp != frame_stamp;
  const double* idle = tables.idle.data();
  double* carry = tables.carry.data();
  if (rebuild_tables) {
    lut.build_idle_table(k, crosstalk, fx, tables.idle.data());
    // parallel_for's return is the barrier: every carry row happens-before
    // the pair loop below on every lane. Rows are disjoint, so any
    // partition is bit-free.
    exec::parallel_for(0, outputs, 0,
                       [&](std::size_t o0, std::size_t o1, std::size_t) {
                         for (std::size_t o = o0; o < o1; ++o) {
                           if (w.sw[o] == 0.0) continue;  // Never read.
                           double* row = carry + o * te;
                           lut.build_carry_table({w.det.data() + o * k, k},
                                                 crosstalk, fx, row);
                           lut.build_d_row(w.neg.data() + o * k, k, crosstalk,
                                           row, idle, row + arm);
                         }
                       });
  }

  const std::size_t row_tiles = (batch + kTile - 1) / kTile;
  const std::size_t col_tiles = (outputs + kTile - 1) / kTile;

  // One flattened (batch-tile, output-tile) pair per work item, output-major
  // within the tile: output o's tables are read once and stay cache-hot
  // across every batch row (pairs are independent, noise is operand-keyed —
  // iteration order and placement are bit-free).
  const auto run_pair_tile = [&](std::size_t f, xl::photonics::VdpScratch& scratch) {
    const std::size_t b0 = (f / col_tiles) * kTile;
    const std::size_t b1 = std::min(batch, b0 + kTile);
    const std::size_t o0 = (f % col_tiles) * kTile;
    const std::size_t o1 = std::min(outputs, o0 + kTile);
    for (std::size_t o = o0; o < o1; ++o) {
      if (w.sw[o] == 0.0) continue;
      const xl::photonics::VdpWeightRow wrow{
          w.neg.data() + o * k, w.zero.data() + o * k,
          w.key.data() + o * nchunks, carry + o * te, carry + o * te + arm};
      for (std::size_t b = b0; b < b1; ++b) {
        if (sx[b] == 0.0) continue;  // y row already zero.
        const xl::photonics::VdpActivationRow xrow{
            a_mag.data() + b * k, x_neg.data() + b * k,
            x_mixed.data() + b * nchunks, x_key.data() + b * nchunks};
        y[b * outputs + o] =
            lut.vdp_output(xrow, wrow, k, idle, crosstalk, fx, scratch) *
            sx[b] * w.sw[o];
      }
    }
  };

  // The scratch pool is sized serially, before the parallel region, so the
  // hot loop never touches the pool vector itself.
  auto& pool = thread_pool();
  exec::parallel_for(0, row_tiles * col_tiles, 1,
                     [&](std::size_t f0, std::size_t f1, std::size_t lane) {
                       xl::photonics::VdpScratch& scratch = *pool[lane];
                       lut.fit_scratch(scratch, k);
                       for (std::size_t f = f0; f < f1; ++f) {
                         run_pair_tile(f, scratch);
                       }
                     });
  if (rebuild_tables) tables.stamp = frame_stamp;

  // Exact work counters, serially from shapes, sign patterns and the cache
  // state, so they never depend on the partition.
  const auto d_products = [&](std::size_t c) {
    const std::size_t bank = lut.bank_size();
    return xl::photonics::MrBankTransferLut::chunk_d_products(
        std::min(bank, k - c * bank), crosstalk);
  };
  std::size_t live_rows = 0;
  std::size_t mixed_products = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    if (sx[b] == 0.0) continue;
    live_rows += 1;
    for (std::size_t c = 0; c < nchunks; ++c) {
      if (x_mixed[b * nchunks + c]) mixed_products += d_products(c);
    }
  }
  const auto live_outputs = static_cast<std::size_t>(
      std::count_if(w.sw.data().begin(), w.sw.data().end(),
                    [](double s) { return s != 0.0; }));
  if (rebuild_tables) {
    std::size_t row_products = 0;
    for (std::size_t c = 0; c < nchunks; ++c) row_products += d_products(c);
    stats_.table_rows_built += live_outputs;
    stats_.transmission_products += live_outputs * row_products;
  }
  stats_.transmission_products += live_outputs * mixed_products;
  if (noisy) {
    stats_.noise_keys += live_rows * k + 2 * live_rows * live_outputs * nchunks;
  }
  workspace.rewind(marker);
}

int BatchedVdpEngine::achievable_resolution_bits() const {
  xl::photonics::ResolutionOptions ro;
  ro.q_factor = opts_.q_factor;
  ro.center_wavelength_nm = opts_.center_wavelength_nm;
  ro.dac_bit_cap = opts_.resolution_bits;
  const xl::photonics::WavelengthGrid grid(opts_.mrs_per_bank, opts_.fsr_nm,
                                           opts_.center_wavelength_nm);
  return xl::photonics::analyze_crosstalk(grid, ro).resolution_bits;
}

}  // namespace xl::core
