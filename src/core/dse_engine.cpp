#include "core/dse_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "exec/exec.hpp"

namespace xl::core {
namespace {

/// Accumulating FNV-1a hasher for the memo-key digests.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t size) noexcept {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;
    }
  }
  void add(double v) noexcept { bytes(&v, sizeof v); }
  void add(bool v) noexcept { bytes(&v, sizeof v); }
  void add(std::uint64_t v) noexcept { bytes(&v, sizeof v); }
};

/// Digest of every EffectConfig field (switchboard, seed, and all stage
/// parameters, field by field — struct padding never enters the hash), so
/// effect axes that differ anywhere produce distinct memo keys.
std::uint64_t hash_effects(const EffectConfig& fx) noexcept {
  Fnv1a f;
  f.add(fx.thermal);
  f.add(fx.fpv);
  f.add(fx.noise);
  f.add(fx.crosstalk);
  f.add(fx.seed);
  const ThermalEffectConfig& th = fx.thermal_stage;
  f.add(th.pitch_um);
  f.add(th.use_ted);
  f.add(th.ambient_drift_nm);
  f.add(th.ambient_period_us);
  f.add(th.dt_us);
  f.add(th.coupling_from_solver);
  f.add(th.rc.tau_us);
  f.add(th.rc.shift_nm_per_mw);
  f.add(th.coupling.self_phase_rad_per_mw);
  f.add(th.coupling.decay_length_um);
  f.add(th.coupling.contact_ratio);
  const FpvEffectConfig& fp = fx.fpv_stage;
  f.add(static_cast<std::uint64_t>(fp.design));
  f.add(fp.pitch_um);
  f.add(fp.trim_residual_fraction);
  f.add(fp.x0_um);
  f.add(fp.y0_um);
  f.add(fp.model.max_drift_conventional_nm);
  f.add(fp.model.max_drift_optimized_nm);
  f.add(fp.model.correlation_length_um);
  f.add(fp.model.systematic_fraction);
  f.add(fp.model.seed);
  const NoiseEffectConfig& no = fx.noise_stage;
  f.add(no.optical_power_mw);
  f.add(no.receiver.responsivity_a_per_w);
  f.add(no.receiver.temperature_k);
  f.add(no.receiver.load_resistance_ohm);
  f.add(no.receiver.bandwidth_ghz);
  f.add(no.receiver.rin_db_per_hz);
  f.add(no.receiver.dark_current_na);
  return f.h;
}

bool finite_positive(double v) noexcept { return std::isfinite(v) && v > 0.0; }

/// Doubles compared by object representation: bit-for-bit, NaN-safe.
bool bits_equal(double a, double b) noexcept {
  std::uint64_t ia = 0, ib = 0;
  static_assert(sizeof ia == sizeof a);
  std::memcpy(&ia, &a, sizeof ia);
  std::memcpy(&ib, &b, sizeof ib);
  return ia == ib;
}

/// A report is sane when every metric the sweep consumes is finite and
/// positive; anything else marks the candidate degenerate.
bool report_is_sane(const AcceleratorReport& r) noexcept {
  return finite_positive(r.perf.fps) && finite_positive(r.epb_pj()) &&
         finite_positive(r.power.total_w()) && finite_positive(r.area_mm2);
}

bool dominates(const DsePoint& a, const DsePoint& b) noexcept {
  const bool no_worse = a.avg_fps >= b.avg_fps && a.avg_epb_pj <= b.avg_epb_pj &&
                        a.area_mm2 <= b.area_mm2 && a.avg_power_w <= b.avg_power_w;
  const bool better = a.avg_fps > b.avg_fps || a.avg_epb_pj < b.avg_epb_pj ||
                      a.area_mm2 < b.area_mm2 || a.avg_power_w < b.avg_power_w;
  return no_worse && better;
}

}  // namespace

bool reports_bit_identical(const AcceleratorReport& a,
                           const AcceleratorReport& b) noexcept {
  return a.accelerator == b.accelerator && a.model == b.model &&
         bits_equal(a.perf.cycle_ns, b.perf.cycle_ns) &&
         a.perf.batch == b.perf.batch &&
         bits_equal(a.perf.frame_latency_us, b.perf.frame_latency_us) &&
         bits_equal(a.perf.fps, b.perf.fps) &&
         bits_equal(a.power.laser_mw, b.power.laser_mw) &&
         bits_equal(a.power.to_tuning_mw, b.power.to_tuning_mw) &&
         bits_equal(a.power.eo_tuning_mw, b.power.eo_tuning_mw) &&
         bits_equal(a.power.pd_mw, b.power.pd_mw) &&
         bits_equal(a.power.tia_mw, b.power.tia_mw) &&
         bits_equal(a.power.vcsel_mw, b.power.vcsel_mw) &&
         bits_equal(a.power.adc_dac_mw, b.power.adc_dac_mw) &&
         bits_equal(a.power.control_mw, b.power.control_mw) &&
         bits_equal(a.area_mm2, b.area_mm2) &&
         a.resolution_bits == b.resolution_bits &&
         a.macs_per_frame == b.macs_per_frame;
}

void DseMemo::merge(const DseMemo& other) {
  if (other.entries.empty()) return;
  std::unordered_map<std::string, const AcceleratorReport*> index;
  index.reserve(entries.size());
  for (const DseMemoEntry& e : entries) index.emplace(e.key, &e.report);
  for (const DseMemoEntry& e : other.entries) {
    const auto it = index.find(e.key);
    if (it == index.end()) {
      entries.push_back(e);
    } else if (!reports_bit_identical(*it->second, e.report)) {
      throw std::runtime_error(
          "DseMemo::merge: divergent reports for key '" + e.key +
          "' — two caches disagree on a deterministic evaluation");
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const DseMemoEntry& a, const DseMemoEntry& b) { return a.key < b.key; });
}

std::string DseEngine::memo_key(const DseCandidate& c,
                                const xl::dnn::ModelSpec& model) {
  // The DeviceParams digest hashes the object representation: the struct is
  // all 8-byte doubles — no padding — so the bytes identify the value.
  static_assert(std::is_trivially_copyable_v<xl::photonics::DeviceParams>);
  const ArchitectureConfig& cfg = c.config;
  Fnv1a devices;
  devices.bytes(&cfg.devices, sizeof cfg.devices);
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "%zu/%zu/%zu/%zu|v%u|r%d|mb%zu|p%.6g/%.6g|d%llx|fx%llx|",
                cfg.conv_unit_size, cfg.fc_unit_size, cfg.conv_units, cfg.fc_units,
                static_cast<unsigned>(cfg.variant), cfg.resolution_bits,
                cfg.mrs_per_bank, cfg.pitch_ted_um, cfg.pitch_guard_um,
                static_cast<unsigned long long>(devices.h),
                static_cast<unsigned long long>(hash_effects(c.effects)));
  return buf + model.name;
}

const DsePoint& DseResult::best() const {
  if (!points.empty()) return points.front();
  if (!rejected.empty()) {
    throw std::invalid_argument(
        "DseResult::best: every candidate evaluated degenerate (" +
        std::to_string(rejected.size()) + " rejected)");
  }
  throw std::invalid_argument("DseResult::best: no points (empty result)");
}

std::vector<DsePoint> pareto_front(const std::vector<DsePoint>& points) {
  std::vector<DsePoint> front;
  for (const DsePoint& p : points) {
    const bool dominated = std::any_of(
        points.begin(), points.end(),
        [&p](const DsePoint& q) { return dominates(q, p); });
    if (!dominated) {
      front.push_back(p);
      front.back().on_pareto = true;
    }
  }
  std::sort(front.begin(), front.end(), dse_point_less);
  // Several budget slices can admit the same design with identical metrics
  // (equal points never dominate each other); keep one representative per
  // design so the front is a set of designs, not of budget rows. Duplicates
  // sort adjacent under dse_point_less.
  front.erase(std::unique(front.begin(), front.end(),
                          [](const DsePoint& a, const DsePoint& b) {
                            return a.conv_unit_size == b.conv_unit_size &&
                                   a.fc_unit_size == b.fc_unit_size &&
                                   a.conv_units == b.conv_units &&
                                   a.fc_units == b.fc_units &&
                                   a.variant == b.variant &&
                                   a.resolution_bits == b.resolution_bits &&
                                   a.avg_fps == b.avg_fps &&
                                   a.avg_epb_pj == b.avg_epb_pj &&
                                   a.area_mm2 == b.area_mm2 &&
                                   a.avg_power_w == b.avg_power_w;
                          }),
              front.end());
  return front;
}

std::vector<DseCandidate> DseEngine::expand(const DseSweep& sweep) {
  const std::vector<Variant> variants = sweep.variant_axis();
  const std::vector<int> resolutions = sweep.resolution_axis();
  const std::vector<double> budgets = sweep.budget_axis();
  const std::size_t effect_count = sweep.effects.empty() ? 1 : sweep.effects.size();

  std::vector<DseCandidate> candidates;
  candidates.reserve(sweep.grid_size());
  for (Variant variant : variants) {
    for (int bits : resolutions) {
      for (std::size_t e = 0; e < effect_count; ++e) {
        for (double budget : budgets) {
          for (std::size_t n_size : sweep.conv_unit_sizes) {
            for (std::size_t k_size : sweep.fc_unit_sizes) {
              for (std::size_t n_count : sweep.conv_unit_counts) {
                for (std::size_t m_count : sweep.fc_unit_counts) {
                  DseCandidate c;
                  c.id = candidates.size();
                  c.config = sweep.base;
                  c.config.conv_unit_size = n_size;
                  c.config.fc_unit_size = k_size;
                  c.config.conv_units = n_count;
                  c.config.fc_units = m_count;
                  c.config.variant = variant;
                  c.config.resolution_bits = bits;
                  if (!sweep.effects.empty()) c.effects = sweep.effects[e];
                  c.area_budget_mm2 = budget;
                  candidates.push_back(std::move(c));
                }
              }
            }
          }
        }
      }
    }
  }
  return candidates;
}

std::vector<DseCandidate> DseEngine::admit(const DseSweep& sweep,
                                           std::size_t* area_filtered) {
  sweep.validate();
  std::vector<DseCandidate> candidates = expand(sweep);
  const std::size_t grid = candidates.size();

  // Budget filter: the sweep enumerates CrossLight organizations, so the
  // area verdict comes from the CrossLight area model up front — over-budget
  // candidates never pay a model evaluation.
  std::vector<DseCandidate> admitted;
  admitted.reserve(candidates.size());
  double min_area = std::numeric_limits<double>::infinity();
  for (DseCandidate& c : candidates) {
    const double area = evaluate_area(c.config).total_mm2();
    min_area = std::min(min_area, area);
    if (area <= c.area_budget_mm2) admitted.push_back(std::move(c));
  }
  if (admitted.empty()) {
    const std::vector<double> budgets = sweep.budget_axis();
    const double max_budget = *std::max_element(budgets.begin(), budgets.end());
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "DseSweep: area budget %.3g mm2 rejects all %zu candidates "
                  "(smallest candidate needs %.3g mm2)",
                  max_budget, grid, min_area);
    throw std::invalid_argument(msg);
  }
  if (area_filtered != nullptr) *area_filtered = grid - admitted.size();
  return admitted;
}

std::vector<DseMemoEntry> DseEngine::evaluate_missing(
    const std::vector<DseCandidate>& candidates,
    const std::vector<xl::dnn::ModelSpec>& models,
    const DseCandidateEvaluator& evaluate,
    const std::unordered_map<std::string, AcceleratorReport>& store,
    DseStats* stats) const {
  // Resolve every (candidate, model) pair against the memo; unseen pairs
  // become jobs, each pair beyond the first with the same key is a hit.
  struct Job {
    std::string key;
    const DseCandidate* candidate;
    const xl::dnn::ModelSpec* model;
  };
  std::vector<Job> jobs;
  {
    std::unordered_map<std::string, std::size_t> pending;
    for (const DseCandidate& c : candidates) {
      for (const auto& model : models) {
        std::string key = memo_key(c, model);
        if (store.count(key) != 0 || pending.count(key) != 0) {
          if (stats != nullptr) ++stats->cache_hits;
          continue;
        }
        pending.emplace(key, jobs.size());
        jobs.push_back(Job{std::move(key), &c, &model});
      }
    }
  }
  if (stats != nullptr) stats->evaluations += jobs.size();

  // Evaluate. Every job writes into its own pre-sized slot, so the result is
  // identical for any thread count, schedule, and completion order.
  std::vector<AcceleratorReport> reports(jobs.size());
  const auto total = jobs.size();
  if (options_.parallel) {
    // The progress counter and first-failure capture are mutex-free
    // accumulators. fetch_add gives each completion a unique
    // monotone count; the exchange elects the one lane that records the
    // exception, published with release and re-read with acquire below.
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failure_claimed{false};
    std::atomic<bool> failure_published{false};
    std::exception_ptr failure;
    exec::parallel_for(
        0, jobs.size(), 1,
        [&](std::size_t i0, std::size_t i1, std::size_t) {
          for (std::size_t i = i0; i < i1; ++i) {
            try {
              reports[i] = evaluate(*jobs[i].candidate, *jobs[i].model);
              if (options_.progress) {
                options_.progress(
                    done.fetch_add(1, std::memory_order_relaxed) + 1, total);
              }
            } catch (...) {
              if (!failure_claimed.exchange(true, std::memory_order_acq_rel)) {
                failure = std::current_exception();
                failure_published.store(true, std::memory_order_release);
              }
            }
          }
        });
    if (failure_published.load(std::memory_order_acquire)) {
      std::rethrow_exception(failure);
    }
  } else {
    std::size_t done = 0;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      reports[i] = evaluate(*jobs[i].candidate, *jobs[i].model);
      if (options_.progress) options_.progress(++done, total);
    }
  }

  std::vector<DseMemoEntry> fresh;
  fresh.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    fresh.push_back(DseMemoEntry{std::move(jobs[i].key), std::move(reports[i])});
  }
  return fresh;
}

namespace {
/// The built-in evaluator shared by run()/populate() without an explicit one.
AcceleratorReport builtin_evaluate(const DseCandidate& c,
                                   const xl::dnn::ModelSpec& model) {
  return CrossLightAccelerator(c.config).evaluate(model);
}
}  // namespace

DseResult DseEngine::run(const DseSweep& sweep,
                         const std::vector<xl::dnn::ModelSpec>& models) {
  return run(sweep, models, builtin_evaluate);
}

DseMemo DseEngine::populate(const std::vector<DseCandidate>& slice,
                            const std::vector<xl::dnn::ModelSpec>& models) {
  return populate(slice, models, builtin_evaluate);
}

DseMemo DseEngine::populate(const std::vector<DseCandidate>& slice,
                            const std::vector<xl::dnn::ModelSpec>& models,
                            const DseCandidateEvaluator& evaluate) {
  if (models.empty()) throw std::invalid_argument("populate: no models");
  if (!evaluate) throw std::invalid_argument("populate: null evaluator");
  DseMemo delta;
  delta.entries = evaluate_missing(slice, models, evaluate, cache_, nullptr);
  for (const DseMemoEntry& e : delta.entries) cache_.emplace(e.key, e.report);
  std::sort(delta.entries.begin(), delta.entries.end(),
            [](const DseMemoEntry& a, const DseMemoEntry& b) { return a.key < b.key; });
  return delta;
}

DseMemo DseEngine::export_memo() const {
  DseMemo memo;
  memo.entries.reserve(cache_.size());
  for (const auto& [key, report] : cache_) {
    memo.entries.push_back(DseMemoEntry{key, report});
  }
  std::sort(memo.entries.begin(), memo.entries.end(),
            [](const DseMemoEntry& a, const DseMemoEntry& b) { return a.key < b.key; });
  return memo;
}

std::size_t DseEngine::import_memo(const DseMemo& memo) {
  std::size_t inserted = 0;
  for (const DseMemoEntry& e : memo.entries) {
    const auto [it, fresh] = cache_.emplace(e.key, e.report);
    if (fresh) {
      ++inserted;
    } else if (!reports_bit_identical(it->second, e.report)) {
      throw std::runtime_error(
          "DseEngine::import_memo: divergent reports for key '" + e.key +
          "' — imported cache disagrees with the resident one");
    }
  }
  return inserted;
}

DseResult DseEngine::run(const DseSweep& sweep,
                         const std::vector<xl::dnn::ModelSpec>& models,
                         const DseCandidateEvaluator& evaluate) {
  if (models.empty()) throw std::invalid_argument("DseEngine::run: no models");
  if (!evaluate) throw std::invalid_argument("DseEngine::run: null evaluator");

  DseResult result;
  const std::vector<DseCandidate> admitted =
      admit(sweep, &result.stats.area_filtered);
  result.stats.grid_candidates = admitted.size() + result.stats.area_filtered;

  std::unordered_map<std::string, AcceleratorReport> local;  // cache-off store
  auto& store = options_.cache_enabled ? cache_ : local;
  std::vector<DseMemoEntry> fresh =
      evaluate_missing(admitted, models, evaluate, store, &result.stats);

  // Merge serially (deterministic), then assemble candidate points from the
  // store in fixed grid/model order — bit-identical for any thread count.
  for (DseMemoEntry& e : fresh) {
    store.emplace(std::move(e.key), std::move(e.report));
  }
  for (const DseCandidate& c : admitted) {
    DsePoint p;
    p.conv_unit_size = c.config.conv_unit_size;
    p.fc_unit_size = c.config.fc_unit_size;
    p.conv_units = c.config.conv_units;
    p.fc_units = c.config.fc_units;
    p.variant = c.config.variant;
    p.resolution_bits = c.config.resolution_bits;
    p.area_budget_mm2 = c.area_budget_mm2;
    p.candidate_id = c.id;
    bool sane = true;
    for (const auto& model : models) {
      const AcceleratorReport& r = store.at(memo_key(c, model));
      sane = sane && report_is_sane(r);
      p.area_mm2 = r.area_mm2;
      p.avg_fps += r.perf.fps;
      p.avg_epb_pj += r.epb_pj();
      p.avg_power_w += r.power.total_w();
    }
    const auto count = static_cast<double>(models.size());
    p.avg_fps /= count;
    p.avg_epb_pj /= count;
    p.avg_power_w /= count;
    if (sane) {
      result.points.push_back(p);
    } else {
      p.degenerate = true;
      result.rejected.push_back(p);
      ++result.stats.degenerate;
    }
  }

  std::sort(result.points.begin(), result.points.end(), dse_point_less);
  // on_pareto flags every non-dominated point (duplicates across budget
  // slices included); result.pareto holds one representative per design.
  for (DsePoint& p : result.points) {
    p.on_pareto = std::none_of(
        result.points.begin(), result.points.end(),
        [&p](const DsePoint& q) { return dominates(q, p); });
  }
  result.pareto = pareto_front(result.points);
  if (options_.top_k > 0 && result.points.size() > options_.top_k) {
    result.points.resize(options_.top_k);
  }
  return result;
}

}  // namespace xl::core
