#include "core/dse.hpp"

#include <stdexcept>
#include <string>

namespace xl::core {

bool dse_point_less(const DsePoint& a, const DsePoint& b) noexcept {
  const double fa = a.fps_per_epb();
  const double fb = b.fps_per_epb();
  if (fa != fb) return fa > fb;
  if (a.conv_unit_size != b.conv_unit_size) return a.conv_unit_size < b.conv_unit_size;
  if (a.fc_unit_size != b.fc_unit_size) return a.fc_unit_size < b.fc_unit_size;
  if (a.conv_units != b.conv_units) return a.conv_units < b.conv_units;
  if (a.fc_units != b.fc_units) return a.fc_units < b.fc_units;
  if (a.variant != b.variant) {
    return static_cast<unsigned>(a.variant) < static_cast<unsigned>(b.variant);
  }
  if (a.resolution_bits != b.resolution_bits) return a.resolution_bits < b.resolution_bits;
  if (a.area_budget_mm2 != b.area_budget_mm2) return a.area_budget_mm2 < b.area_budget_mm2;
  return a.candidate_id < b.candidate_id;
}

std::vector<Variant> DseSweep::variant_axis() const {
  return variants.empty() ? std::vector<Variant>{variant} : variants;
}

std::vector<int> DseSweep::resolution_axis() const {
  return resolution_bits.empty() ? std::vector<int>{base.resolution_bits}
                                 : resolution_bits;
}

std::vector<double> DseSweep::budget_axis() const {
  return area_budgets_mm2.empty() ? std::vector<double>{max_area_mm2}
                                  : area_budgets_mm2;
}

std::size_t DseSweep::grid_size() const {
  // One source of truth with expand(): the resolved-axis helpers.
  const std::size_t scenarios = variant_axis().size() * resolution_axis().size() *
                                (effects.empty() ? 1 : effects.size()) *
                                budget_axis().size();
  return scenarios * conv_unit_sizes.size() * fc_unit_sizes.size() *
         conv_unit_counts.size() * fc_unit_counts.size();
}

void DseSweep::validate() const {
  auto fail = [](const std::string& what) { throw std::invalid_argument(what); };
  auto check_axis = [&fail](const std::vector<std::size_t>& axis, const char* name) {
    if (axis.empty()) fail(std::string("DseSweep: axis ") + name + " is empty");
    for (std::size_t v : axis) {
      if (v == 0) fail(std::string("DseSweep: axis ") + name + " has a zero entry");
    }
  };
  check_axis(conv_unit_sizes, "conv_unit_sizes (N)");
  check_axis(fc_unit_sizes, "fc_unit_sizes (K)");
  check_axis(conv_unit_counts, "conv_unit_counts (n)");
  check_axis(fc_unit_counts, "fc_unit_counts (m)");
  if (max_area_mm2 <= 0.0) {
    fail("DseSweep: max_area_mm2 must be > 0 (got " + std::to_string(max_area_mm2) + ")");
  }
  for (double b : area_budgets_mm2) {
    if (b <= 0.0) fail("DseSweep: axis area_budgets_mm2 has a non-positive entry");
  }
  for (int bits : resolution_bits) {
    if (bits < 1 || bits > 16) {
      fail("DseSweep: axis resolution_bits entry " + std::to_string(bits) +
           " outside [1, 16]");
    }
  }
  for (const EffectConfig& fx : effects) fx.validate();
  base.validate();
}

}  // namespace xl::core
