// Batched photonic execution engine: whole GEMMs on the simulated VDP
// datapath.
//
// Where VdpSimulator answers "what does one analog dot product compute",
// this engine answers the same question for an entire matrix product
// Y = X * W^T (a batch of activations against a layer's weight rows, or an
// im2col patch matrix against conv filters). Per-call work that the scalar
// path repeats for every output element is hoisted to once per operand:
//   * DAC row normalization (per-row max magnitudes via numerics kernels),
//   * activation quantization, once per (sample, element),
//   * weight quantization and the weight->detuning imprint inversion, once
//     per (output, element) via the photonics::MrBankTransferLut code LUT,
//   * the arm-transmission tables and each output's sign-free D row (the
//     Eq. 8 crosstalk products), once per effect frame,
//   * the two halves of every PD-noise key: the weight half once per pack,
//     the activation half once per (sample, chunk).
// Both photonic_matmul overloads run one implementation, and every step of
// it is photonics::MrBankTransferLut code shared with VdpSimulator, so every
// output element is bit-identical to the scalar sim.dot(X.row(b), W.row(o))
// — verified by tests/test_batched_vdp_engine.cpp.
//
// Output tiles are processed in parallel on the xl::exec pool; each element
// is owned by exactly one tile, so results are deterministic for any thread
// count and any assignment of tiles to lanes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/vdp_simulator.hpp"
#include "numerics/aligned.hpp"
#include "numerics/arena.hpp"
#include "numerics/matrix.hpp"
#include "photonics/bank_lut.hpp"

namespace xl::core {

/// Work counters for one engine (accumulated across photonic_matmul calls).
/// The last three count host work exactly; they are computed serially from
/// the operand shapes, sign patterns and cache state, so they do not depend
/// on executor width or SIMD tier. Rows and outputs whose DAC scale is zero
/// do no work and count none.
struct BatchedVdpStats {
  std::size_t matmuls = 0;        ///< photonic_matmul invocations.
  std::size_t dot_products = 0;   ///< Output elements simulated.
  std::size_t macs = 0;           ///< Multiply-accumulates simulated.
  std::size_t max_batch_rows = 0; ///< Largest activation batch seen.
  /// Output rows whose carry table and sign-free D row were (re)built.
  std::size_t table_rows_built = 0;
  /// Multiplies that formed D rows: the cached sign-free rows on a rebuild
  /// plus every chunk formed on the fly because it held a negative
  /// activation (MrBankTransferLut::chunk_d_products per chunk).
  std::size_t transmission_products = 0;
  /// hash_combine calls for PD-noise keys: the activation halves (one per
  /// element of each nonzero row) and two per (row, output, chunk). The
  /// weight halves are hashed once at pack time and not counted here.
  std::size_t noise_keys = 0;
};

/// Weight-side operand of a planned GEMM, packed once at plan-compile time:
/// per-output DAC scales, quantized imprint detunings, the sign/zero tables
/// the hot loop folds activation signs against, and the weight half of
/// every chunk's PD-noise key. Packing hoists the entire weight pass out of
/// the per-request path.
struct PackedGemmWeights {
  std::size_t outputs = 0;
  std::size_t k = 0;
  numerics::Vector sw;             ///< Per-output row scale (max |w|).
  numerics::AlignedVector det;     ///< outputs * k imprint detunings.
  std::vector<unsigned char> neg;  ///< Weight sign bits.
  std::vector<unsigned char> zero; ///< Exact-zero weight flags.
  std::vector<std::uint64_t> key;  ///< outputs * chunks weight-half keys.
};

/// Caller-owned cache of the tables one planned GEMM consumes: the idle
/// table, and per output its carry table followed by its sign-free D row
/// (photonics::MrBankTransferLut::build_idle_table/build_carry_table/
/// build_d_row). The tables depend only on the packed weights and the
/// rendered effect frame — never on activations — and a frame is a pure
/// function of the pipeline's simulated time, so the engine revalidates by
/// time stamp: under the serving contract (one reset_effects per
/// micro-batch) every layer executes at the same simulated time on every
/// batch and the Lorentzian division and crosstalk-product passes run once,
/// not once per call. Spans are carved from the plan arena: carry holds
/// outputs * gemm_table_elems(k) doubles, idle gemm_table_elems(k).
struct GemmTableCache {
  std::span<double> carry;
  std::span<double> idle;
  double stamp = -1.0;  ///< Pipeline time of the cached frame; < 0 = empty.
};

class BatchedVdpEngine {
 public:
  /// Validates `opts` (VdpSimOptions::validate) and builds the shared LUT
  /// plus the non-ideality pipeline selected by opts.effects.
  explicit BatchedVdpEngine(const VdpSimOptions& opts = {});

  /// Photonic Y = X * W^T: X is (batch x K) activations, W is (outputs x K)
  /// weight rows, Y is (batch x outputs). Rows are normalized independently
  /// (per-sample sx, per-output sw), matching the scalar simulator's
  /// per-dot DAC scaling. Packs W, then runs the planned implementation on
  /// a fresh table cache. Throws std::invalid_argument on shape mismatch.
  [[nodiscard]] numerics::Matrix photonic_matmul(const numerics::Matrix& x,
                                                 const numerics::Matrix& w);

  /// Exact electronic reference for the same GEMM shape (tiled kernel).
  [[nodiscard]] static numerics::Matrix exact_matmul(const numerics::Matrix& x,
                                                     const numerics::Matrix& w);

  /// Quantize a float row-major (outputs x k) weight matrix into the packed
  /// form consumed by the caller-provided-output photonic_matmul overload.
  /// The Matrix overload packs its weights with the same code, so planned
  /// GEMMs are bit-identical to it.
  [[nodiscard]] PackedGemmWeights pack_weights(const float* w, std::size_t outputs,
                                               std::size_t k) const;

  /// Planned photonic Y = X * W^T with a caller-provided output buffer.
  ///
  /// Contract (the zero-allocation hot path):
  ///   * `x` is row-major (batch x k) float activations; `y` must hold
  ///     batch * outputs doubles and is fully overwritten.
  ///   * Transient activation tables (sx, a_mag, x_neg, the per-chunk
  ///     mixed-sign flags and noise-key halves) come from `workspace`
  ///     via a mark/rewind pair — the arena's steady-state usage is flat and
  ///     no heap allocation occurs once thread scratch is warm (see
  ///     warm_thread_scratch); size the arena with matmul_workspace_bytes.
  ///   * `tables` holds this GEMM's tables (idle sized gemm_table_elems(k),
  ///     carry sized outputs * gemm_table_elems(k): each output's carry
  ///     table and sign-free D row). The engine revalidates the cache
  ///     against the current effect frame's time stamp and rebuilds only on
  ///     mismatch — under the serving contract (reset_effects per
  ///     micro-batch) the table pass runs once per plan lifetime, not once
  ///     per call. A chunk whose activations hold a negative entry forms its
  ///     D on the fly from the same tables, with the same bits the cache
  ///     would hold for that sign pattern.
  ///   * `y`, `workspace`, and `tables` must not alias `x`; calls on the
  ///     same engine must not overlap (the per-thread scratch pool is
  ///     engine-owned).
  ///   * Bit-identity: for identical operand values this computes exactly
  ///     the bytes of the Matrix overload (they share one implementation) —
  ///     plans change where bytes live and when tables are built, never
  ///     what is computed.
  void photonic_matmul(const float* x, std::size_t batch, std::size_t k,
                       const PackedGemmWeights& w, double* y,
                       numerics::Arena& workspace, GemmTableCache& tables);

  /// Upper bound of the arena bytes one planned photonic_matmul call bumps
  /// transiently: the activation tables (sx, a_mag, x_neg, per-chunk mixed
  /// flags and noise-key halves). ExecutionPlan
  /// reserves this per GEMM step so the steady state never regrows the
  /// arena. Table storage is separate and persistent — see gemm_table_elems.
  [[nodiscard]] std::size_t matmul_workspace_bytes(std::size_t batch,
                                                   std::size_t k) const;

  /// Doubles of one output's cached tables for a k-element operand under
  /// this engine's crosstalk configuration: its arm-transmission table plus
  /// its k-element sign-free D row. A GemmTableCache for a (k, outputs)
  /// GEMM needs gemm_table_elems(k) idle doubles (the idle table leaves the
  /// last k unused) plus outputs * gemm_table_elems(k) carry doubles.
  [[nodiscard]] std::size_t gemm_table_elems(std::size_t k) const;

  /// Pre-size the per-thread VDP scratch for operand length `max_k`, so the
  /// first planned matmul after plan compile is already allocation-free.
  /// Serial; call outside the hot path.
  void warm_thread_scratch(std::size_t max_k);

  [[nodiscard]] const VdpSimOptions& options() const noexcept { return opts_; }
  /// Precomputed transfer tables (shared kernel with VdpSimulator).
  [[nodiscard]] const xl::photonics::MrBankTransferLut& lut() const noexcept {
    return sim_.lut();
  }
  /// Scalar reference simulator over the same bank (for parity checks).
  [[nodiscard]] const VdpSimulator& scalar_simulator() const noexcept { return sim_; }

  /// The non-ideality pipeline driving this engine's operating points
  /// (shared with the scalar simulator, so parity holds under any effects).
  [[nodiscard]] const EffectPipeline& effects() const noexcept;

  /// Advance the pipeline's simulated time (thermal evolution); called once
  /// per accelerated layer by PhotonicInferenceEngine.
  void advance_effects(double dt_us);
  /// Return the pipeline to its boot (t = 0) state.
  void reset_effects();

  /// Eq. 8-10 achievable resolution of this engine's WDM comb, from the
  /// precomputed crosstalk row sums (Section V-B).
  [[nodiscard]] int achievable_resolution_bits() const;

  [[nodiscard]] const BatchedVdpStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = BatchedVdpStats{}; }

 private:
  /// Weight pass shared by pack_weights and the Matrix overload.
  template <class T>
  [[nodiscard]] PackedGemmWeights pack(const T* w, std::size_t outputs,
                                       std::size_t k) const;

  /// The one GEMM implementation behind both photonic_matmul overloads.
  template <class T>
  void gemm(const T* x, std::size_t batch, std::size_t k,
            const PackedGemmWeights& w, double* y, numerics::Arena& workspace,
            GemmTableCache& tables);

  /// Grow the per-lane scratch pool to the current executor width; returns
  /// it. Heap pointers (not values) so entries never move when the pool
  /// grows and false sharing between lanes is avoided.
  std::vector<std::unique_ptr<xl::photonics::VdpScratch>>& thread_pool();

  VdpSimOptions opts_;
  VdpSimulator sim_;  ///< Owns the grid + LUT; also the scalar fallback.
  BatchedVdpStats stats_;
  std::vector<std::unique_ptr<xl::photonics::VdpScratch>> thread_scratch_;
};

}  // namespace xl::core
