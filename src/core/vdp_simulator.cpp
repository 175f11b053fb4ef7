#include "core/vdp_simulator.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/effect_pipeline.hpp"

namespace xl::core {

void VdpSimOptions::validate() const {
  auto check = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(what);
  };
  check(mrs_per_bank >= 1, "VdpSimOptions: mrs_per_bank must be >= 1");
  check(resolution_bits >= 1 && resolution_bits <= 16,
        "VdpSimOptions: resolution_bits in [1, 16]");
  check(q_factor > 1.0, "VdpSimOptions: q_factor must exceed 1");
  check(fsr_nm > 0.0, "VdpSimOptions: fsr_nm must be > 0");
  check(center_wavelength_nm > 0.0,
        "VdpSimOptions: center_wavelength_nm must be > 0");
  effects.validate();
}

namespace {

xl::photonics::MrBankTransferLut make_lut(const VdpSimOptions& opts,
                                          const xl::photonics::WavelengthGrid& grid) {
  xl::photonics::MicroringDesign defaults;  // For the default extinction ratio.
  return {grid, opts.q_factor, defaults.extinction_ratio_db, opts.resolution_bits};
}

/// Per-thread operand, table and chunk buffers of VdpSimulator::dot, grown
/// to the largest length seen so repeated calls stop allocating. Every
/// element a call reads is written by that call first.
struct DotWorkspace {
  std::vector<double> f64;
  std::vector<unsigned char> u8;
  std::vector<std::uint64_t> u64;
  xl::photonics::VdpScratch scratch;

  void fit(std::size_t doubles, std::size_t bytes, std::size_t keys) {
    if (f64.size() < doubles) f64.resize(doubles);
    if (u8.size() < bytes) u8.resize(bytes);
    if (u64.size() < keys) u64.resize(keys);
  }
};

const VdpSimOptions& validated(const VdpSimOptions& opts) {
  opts.validate();
  return opts;
}

}  // namespace

VdpSimulator::VdpSimulator(const VdpSimOptions& opts)
    : opts_(validated(opts)),
      grid_(opts.mrs_per_bank, opts.fsr_nm, opts.center_wavelength_nm),
      lut_(make_lut(opts, grid_)),
      effects_(std::make_unique<EffectPipeline>(opts)) {}

VdpSimulator::~VdpSimulator() = default;
VdpSimulator::VdpSimulator(VdpSimulator&&) noexcept = default;
VdpSimulator& VdpSimulator::operator=(VdpSimulator&&) noexcept = default;

double VdpSimulator::exact_dot(std::span<const double> x, std::span<const double> w) {
  if (x.size() != w.size()) throw std::invalid_argument("exact_dot: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * w[i];
  return acc;
}

double VdpSimulator::dot(std::span<const double> x, std::span<const double> w) const {
  if (x.size() != w.size()) throw std::invalid_argument("VdpSimulator::dot: size mismatch");
  if (x.empty()) return 0.0;

  // One output of the shared chunked datapath: the same operand packing,
  // table, D-row and partial code the batched engine runs per element. The
  // packers normalize each operand by its max magnitude (DAC pre-scaling).
  const std::size_t len = x.size();
  const std::size_t chunks = lut_.chunks(len);
  const bool crosstalk = effects_->crosstalk();
  const xl::photonics::VdpEffects* fx = effects_->vdp_effects();
  const bool noisy = fx != nullptr && fx->active() && fx->noise_std > 0.0;

  const std::size_t arm = lut_.arm_table_elems(len, crosstalk);
  thread_local DotWorkspace ws;
  ws.fit(3 * len + 2 * arm, 3 * len + chunks, 2 * chunks);
  double* a = ws.f64.data();
  double* det = a + len;
  double* idle = det + len;
  double* carry = idle + arm;  // Carry table, then the D row.
  unsigned char* x_neg = ws.u8.data();
  unsigned char* w_neg = x_neg + len;
  unsigned char* w_zero = w_neg + len;
  unsigned char* mixed = w_zero + len;
  std::uint64_t* x_key = ws.u64.data();
  std::uint64_t* w_key = x_key + chunks;
  const double sx = lut_.pack_activation_row(x.data(), len, a, x_neg, mixed,
                                             noisy ? x_key : nullptr);
  const double sw = lut_.pack_weight_row(w.data(), len, det, w_neg, w_zero, w_key);
  if (sx == 0.0 || sw == 0.0) return 0.0;

  lut_.build_idle_table(len, crosstalk, fx, idle);
  lut_.build_carry_table({det, len}, crosstalk, fx, carry);
  lut_.build_d_row(w_neg, len, crosstalk, carry, idle, carry + arm);

  lut_.fit_scratch(ws.scratch, len);
  const xl::photonics::VdpActivationRow xrow{a, x_neg, mixed, x_key};
  const xl::photonics::VdpWeightRow wrow{w_neg, w_zero, w_key, carry, carry + arm};
  return lut_.vdp_output(xrow, wrow, len, idle, crosstalk, fx, ws.scratch) * sx *
         sw;
}

double VdpSimulator::absolute_error(std::span<const double> x,
                                    std::span<const double> w) const {
  return std::abs(dot(x, w) - exact_dot(x, w));
}

}  // namespace xl::core
