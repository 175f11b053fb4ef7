// dse-sweep: the Fig. 6 cross-layer design-space sweep. Each operation is a
// cold api::Session::run_dse over the Table I zoo in a fresh Session, then a
// warm re-run in the same session, which must be served entirely from the
// memo the cold run wrote. No photonic GEMM runs here: GEMM, kernel and
// serving changes should leave this workload unmoved.
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "core/accelerator.hpp"
#include "core/dse_engine.hpp"
#include "dnn/models.hpp"
#include "stats.hpp"
#include "studies.hpp"

namespace xlb {
namespace {

constexpr std::size_t kTopK = 8;
constexpr std::size_t kMinSweeps = 5;
constexpr std::size_t kWarmReruns = 3;

// Pinned outcome of the sweep below. The analytical models are
// deterministic, so any change here is a change in what the DSE computes.
constexpr std::size_t kPinnedGrid = 3240;
constexpr std::size_t kPinnedAreaFiltered = 1236;
constexpr std::size_t kPinnedEvaluations = 8016;
constexpr std::size_t kPinnedPareto = 50;
constexpr std::uint64_t kPinnedParetoHash = 0xbd3f7b32511a37acULL;
constexpr std::array<std::size_t, kTopK> kPinnedTop = {3153, 3156, 3165, 3162,
                                                       3198, 3157, 3108, 3154};

/// The default (N, K, n, m) grid widened along N and K, times all four
/// architecture variants and three datapath resolutions.
xl::core::DseSweep make_sweep() {
  xl::core::DseSweep sweep;
  sweep.conv_unit_sizes = {10, 15, 20, 25, 30, 35};
  sweep.fc_unit_sizes = {50, 100, 150, 200, 250};
  sweep.variants = {xl::core::Variant::kBase, xl::core::Variant::kBaseTed,
                    xl::core::Variant::kOpt, xl::core::Variant::kOptTed};
  sweep.resolution_bits = {4, 8, 16};
  return sweep;
}

/// FNV-1a over candidate ids, in ranked order.
std::uint64_t id_hash(const std::vector<xl::core::DsePoint>& points) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const auto& p : points) {
    h ^= p.candidate_id;
    h *= 1099511628211ULL;
  }
  return h;
}

bool same_points(const std::vector<xl::core::DsePoint>& a,
                 const std::vector<xl::core::DsePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double va[4] = {a[i].avg_fps, a[i].avg_epb_pj, a[i].area_mm2, a[i].avg_power_w};
    const double vb[4] = {b[i].avg_fps, b[i].avg_epb_pj, b[i].area_mm2, b[i].avg_power_w};
    if (a[i].candidate_id != b[i].candidate_id || std::memcmp(va, vb, sizeof(va)) != 0) {
      return false;
    }
  }
  return true;
}

class DseStudy final : public Study {
 public:
  DseStudy() : models_(xl::dnn::table1_models()), sweep_(make_sweep()) {
    options_.top_k = kTopK;
  }

  void measure(double budget_s, Checks& checks) override {
    const auto start = Clock::now();
    do {
      checks.attempt();
      try {
        xl::api::Session session;
        const auto t0 = Clock::now();
        const xl::core::DseResult cold = session.run_dse(sweep_, models_, options_);
        cold_us_.push_back(us_between(t0, Clock::now()));
        // Warm re-runs are cheap next to the cold sweep; several per cold
        // run give the warm median as many samples.
        for (std::size_t rep = 0; rep < kWarmReruns; ++rep) {
          const auto t1 = Clock::now();
          const xl::core::DseResult warm = session.run_dse(sweep_, models_, options_);
          warm_us_.push_back(us_between(t1, Clock::now()));
          verify(cold, warm, checks);
        }
      } catch (const std::exception& e) {
        checks.fail(std::string("dse: ") + e.what());
      }
    } while (us_between(start, Clock::now()) < budget_s * 1e6);
  }

  void report(Metrics& metrics, Checks& checks, const HostSpeed& host) override {
    if (!checks.expect(!cold_us_.empty(), "dse: no sweep completed")) return;
    const double cold = median(cold_us_);
    const double warm = median(warm_us_);
    std::printf(
        "dse: %zu sweeps, %zu evaluations each, cold %.1f ms, warm %.2f ms (host slowdown "
        "%.3f)\n",
        cold_us_.size(), kPinnedEvaluations, cold / 1e3, warm / 1e3, host.slowdown());
    // A sweep whose evaluation count differs from the pinned one fails the
    // run, so the pinned count is the work of every sweep timed here.
    metrics.set("dse.cold_evals_per_s",
                host.rate(static_cast<double>(kPinnedEvaluations) * 1e6 / cold), "1/s");
  }

  void trace(double budget_s, bool primary, Tracer& tracer, Metrics& metrics,
             Checks& checks) override {
    const double each_s = budget_s / 6.0;
    checks.attempt();
    try {
      // Parallel vs serial cold sweeps of the same grid, alternated.
      xl::core::DseEngine::Options serial = options_;
      serial.parallel = false;
      std::vector<double> parallel_us;
      std::vector<double> serial_us;
      std::vector<double> warm_us;
      xl::core::DseResult cold;
      xl::core::DseResult warm;
      const auto start = Clock::now();
      while (parallel_us.size() < 2 || us_between(start, Clock::now()) < 2.0 * each_s * 1e6) {
        {
          xl::api::Session session;
          const auto t0 = Clock::now();
          cold = session.run_dse(sweep_, models_, options_);
          const auto t1 = Clock::now();
          warm = session.run_dse(sweep_, models_, options_);
          const auto t2 = Clock::now();
          tracer.record("api.dse.cold", "api", t0, t1);
          tracer.record("api.dse.warm", "api", t1, t2);
          parallel_us.push_back(us_between(t0, t1));
          warm_us.push_back(us_between(t1, t2));
        }
        xl::api::Session session;
        const auto t0 = Clock::now();
        const xl::core::DseResult serial_cold = session.run_dse(sweep_, models_, serial);
        const auto t1 = Clock::now();
        tracer.record("api.dse.cold_serial", "api", t0, t1);
        serial_us.push_back(us_between(t0, t1));
        checks.expect(same_points(serial_cold.points, cold.points) &&
                          same_points(serial_cold.pareto, cold.pareto),
                      "dse: serial and parallel sweeps disagree");
      }
      verify(cold, warm, checks);
      metrics.set("exec.dse_speedup", median(serial_us) / median(parallel_us), "ratio");
      // The warm re-run is memory-bound: over ten runs on a shared host its
      // spread reached 0.25-0.39 of its median, so it is reported here
      // rather than gated end to end.
      metrics.set("dse.warm_ms", median(warm_us) / 1e3, "ms");
      metrics.set("dse.evaluations", static_cast<double>(cold.stats.evaluations), "count");
      metrics.set("dse.cache_hits", static_cast<double>(warm.stats.cache_hits), "count");
      metrics.set("dse.area_filtered", static_cast<double>(cold.stats.area_filtered),
                  "count");

      const xl::core::CrossLightAccelerator accelerator(sweep_.base);
      std::vector<double> eval_us;
      const auto e0 = Clock::now();
      for (std::size_t i = 0; eval_us.size() < 20 || us_between(e0, Clock::now()) < each_s * 1e6;
           ++i) {
        const auto t0 = Clock::now();
        const xl::core::AcceleratorReport report = accelerator.evaluate(models_[i % 4]);
        const auto t1 = Clock::now();
        tracer.record("core.accel.evaluate", "core", t0, t1);
        eval_us.push_back(us_between(t0, t1));
        checks.expect(report.perf.fps > 0.0, "dse: accelerator report without FPS");
      }
      metrics.set("core.accel.evaluate_us", median(eval_us), "us");

      std::vector<xl::core::DseCandidate> admitted;
      const std::vector<double> admit_us =
          time_reps(tracer, "core.dse.admit", "core", each_s, 5, 1000,
                    [&] { admitted = xl::core::DseEngine::admit(sweep_); });
      metrics.set("core.dse.admit_us", median(admit_us), "us");

      // memo_key costs well under the clock's resolution per call: time
      // passes over every admitted candidate for one model.
      std::size_t key_bytes = 0;
      const std::vector<double> key_us = time_reps(tracer, "core.dse.memo_key.all", "core",
                                                   each_s, 5, 1000, [&] {
        for (const auto& candidate : admitted) {
          key_bytes += xl::core::DseEngine::memo_key(candidate, models_[0]).size();
        }
      });
      checks.expect(key_bytes > 0, "dse: empty memo keys");
      metrics.set("core.dse.memo_key_us",
                  median(key_us) / static_cast<double>(admitted.size()), "us");

      if (primary) {
        // The same cold sweep with and without its spans, alternated.
        std::vector<double> plain_us;
        std::vector<double> traced_us;
        for (std::size_t rep = 0; rep < kMinSweeps; ++rep) {
          for (const bool traced : {false, true}) {
            xl::api::Session session;
            const auto t0 = Clock::now();
            (void)session.run_dse(sweep_, models_, options_);
            const auto t1 = Clock::now();
            if (traced) tracer.record("api.dse.cold", "api", t0, t1);
            (traced ? traced_us : plain_us).push_back(us_between(t0, t1));
          }
        }
        metrics.set("trace.overhead_frac", median(traced_us) / median(plain_us) - 1.0,
                    "frac");
      }
    } catch (const std::exception& e) {
      checks.fail(std::string("dse trace: ") + e.what());
    }
  }

 private:
  void verify(const xl::core::DseResult& cold, const xl::core::DseResult& warm,
              Checks& checks) const {
    std::array<std::size_t, kTopK> top{};
    for (std::size_t i = 0; i < kTopK && i < cold.points.size(); ++i) {
      top[i] = cold.points[i].candidate_id;
    }
    const std::uint64_t pareto_hash = id_hash(cold.pareto);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "dse: grid %zu filtered %zu evaluations %zu pareto %zu hash 0x%llx top "
                  "{%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu} differ from the pinned values",
                  cold.stats.grid_candidates, cold.stats.area_filtered,
                  cold.stats.evaluations, cold.pareto.size(),
                  static_cast<unsigned long long>(pareto_hash), top[0], top[1], top[2],
                  top[3], top[4], top[5], top[6], top[7]);
    checks.expect(cold.stats.grid_candidates == kPinnedGrid &&
                      cold.stats.area_filtered == kPinnedAreaFiltered &&
                      cold.stats.evaluations == kPinnedEvaluations &&
                      cold.stats.cache_hits == 0 && cold.stats.degenerate == 0 &&
                      cold.pareto.size() == kPinnedPareto &&
                      pareto_hash == kPinnedParetoHash && top == kPinnedTop,
                  buf);
    checks.expect(warm.stats.evaluations == 0 &&
                      warm.stats.cache_hits == cold.stats.evaluations,
                  "dse: warm re-run paid evaluations");
    checks.expect(same_points(cold.points, warm.points) &&
                      same_points(cold.pareto, warm.pareto),
                  "dse: warm re-run ranked differently from the cold run");
  }

  std::vector<xl::dnn::ModelSpec> models_;
  xl::core::DseSweep sweep_;
  xl::core::DseEngine::Options options_;
  std::vector<double> cold_us_;  ///< Every measured cold sweep.
  std::vector<double> warm_us_;  ///< Its warm re-run.
};

}  // namespace

std::unique_ptr<Study> make_dse_study() { return std::make_unique<DseStudy>(); }

}  // namespace xlb
