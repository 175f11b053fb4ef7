// DseEngine — the parallel, memoizing design-space exploration subsystem.
//
// The sweep grid (tuple axes x scenario axes) is flattened into a dense
// candidate queue; candidates are evaluated on the xl::exec pool with results
// written into a pre-sized vector indexed by job id, so the outcome is
// bit-identical to the serial path for any thread count and schedule. A
// per-(configuration, model) memo cache persists across run() calls on the
// same engine: overlapping axes (e.g. several area budgets over the same
// tuples) and repeated sweeps never pay a second evaluation.
//
// Degenerate evaluations (non-finite or non-positive FPS/EPB/power/area) are
// never ranked: they are flagged and surfaced in DseResult::rejected.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/accelerator.hpp"
#include "core/dse.hpp"
#include "dnn/layer_spec.hpp"

namespace xl::core {

/// One entry of the flattened candidate grid. `config` carries the tuple,
/// variant, and resolution; `effects` the scenario non-ideality stage set.
struct DseCandidate {
  std::size_t id = 0;
  ArchitectureConfig config;
  EffectConfig effects;
  double area_budget_mm2 = 0.0;
};

/// Candidate-level evaluator. MUST be thread-safe when the engine runs in
/// parallel mode: it is invoked concurrently from executor lanes.
using DseCandidateEvaluator =
    std::function<AcceleratorReport(const DseCandidate&, const xl::dnn::ModelSpec&)>;

/// Progress observer, called after every completed evaluator job with
/// (jobs done, jobs total). Parallel runs call it lock-free from executor
/// lanes: each count is unique and done <= total, but calls may overlap
/// and arrive slightly out of count order (see Options::progress).
using DseProgress = std::function<void(std::size_t done, std::size_t total)>;

struct DseStats {
  std::size_t grid_candidates = 0;  ///< Fully expanded grid size.
  std::size_t area_filtered = 0;    ///< Rejected by their budget, never evaluated.
  std::size_t evaluations = 0;      ///< Evaluator calls paid this run.
  std::size_t cache_hits = 0;       ///< (config, model) pairs served from the memo.
  std::size_t degenerate = 0;       ///< Candidates rejected for broken reports.

  [[nodiscard]] double cache_hit_rate() const noexcept {
    const double total = static_cast<double>(evaluations + cache_hits);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// One memoized evaluation: the engine's memo key and its report.
struct DseMemoEntry {
  std::string key;
  AcceleratorReport report;
};

/// Bitwise equality of two reports: every double compared by object
/// representation (not operator==, so a NaN can never mask divergence),
/// strings and integers exactly. This is the agreement predicate of
/// DseMemo::merge and DseEngine::import_memo — two engines evaluating the
/// same deterministic candidate must produce the same bits.
[[nodiscard]] bool reports_bit_identical(const AcceleratorReport& a,
                                         const AcceleratorReport& b) noexcept;

/// Portable snapshot of a DseEngine memo cache: entries sorted by key,
/// unique. Memos exported from independent engines (each populated with a
/// slice of one sweep) merge into a union cache; importing it makes a warm
/// re-run of the whole sweep evaluator-free.
struct DseMemo {
  std::vector<DseMemoEntry> entries;  ///< Sorted ascending by key, unique.

  /// Union-merge `other` into this memo. Disjoint keys accumulate;
  /// overlapping keys must carry bit-identical reports or the merge throws
  /// std::runtime_error naming the offending key — divergent reports for
  /// one key mean two engines disagreed on a deterministic evaluation, which
  /// is always a bug and must fail loudly, never silently pick a side.
  void merge(const DseMemo& other);

  [[nodiscard]] std::size_t size() const noexcept { return entries.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries.empty(); }
};

struct DseResult {
  /// Valid points ranked by dse_point_less (truncated to Options::top_k).
  std::vector<DsePoint> points;
  /// Non-dominated subset over (max fps, min epb, min area, min power),
  /// ranked by dse_point_less; never truncated. One representative per
  /// design: when several budget slices admit the same design, only the
  /// first (lowest-budget) row appears here, while every duplicate in
  /// `points` still carries on_pareto = true.
  std::vector<DsePoint> pareto;
  /// Degenerate candidates, flagged (degenerate = true), unranked.
  std::vector<DsePoint> rejected;
  DseStats stats;

  /// Highest-ranked valid point; throws std::invalid_argument when the run
  /// produced none (e.g. every candidate evaluated degenerate).
  [[nodiscard]] const DsePoint& best() const;
};

/// Non-dominated subset of `points` over (max avg_fps, min avg_epb_pj,
/// min area_mm2, min avg_power_w), ranked by dse_point_less, deduplicated
/// to one representative per (design, metrics).
[[nodiscard]] std::vector<DsePoint> pareto_front(const std::vector<DsePoint>& points);

class DseEngine {
 public:
  struct Options {
    bool parallel = true;      ///< Parallel candidate evaluation (xl::exec).
    bool cache_enabled = true; ///< Memoize reports across run() calls.
    std::size_t top_k = 0;     ///< Keep only the k best points (0 = all).
    /// Optional progress callback. Counts are unique and each call observes
    /// done <= total, but under parallel evaluation calls may arrive from
    /// concurrent lanes (and slightly out of count order) — the callback
    /// must be thread-safe.
    DseProgress progress;
  };

  DseEngine() = default;
  explicit DseEngine(Options options) : options_(std::move(options)) {}

  /// Run the sweep with the built-in CrossLightAccelerator evaluator.
  [[nodiscard]] DseResult run(const DseSweep& sweep,
                              const std::vector<xl::dnn::ModelSpec>& models);

  /// Run the sweep with a custom (thread-safe, deterministic) evaluator.
  /// Throws std::invalid_argument on invalid sweeps, an empty model list, or
  /// a budget that rejects every candidate (the error names the budget).
  [[nodiscard]] DseResult run(const DseSweep& sweep,
                              const std::vector<xl::dnn::ModelSpec>& models,
                              const DseCandidateEvaluator& evaluate);

  /// Flatten the sweep into its dense candidate grid (deterministic order:
  /// variant, resolution, effects, budget, N, K, n, m; id = flat index).
  [[nodiscard]] static std::vector<DseCandidate> expand(const DseSweep& sweep);

  /// Expand + area-filter: exactly the admission run() applies, exposed so
  /// callers slicing a sweep for populate() (and xlbench's DSE study)
  /// agree with run() on candidate identity. Deterministic order (the
  /// expand() order, filtered). Throws std::invalid_argument on invalid
  /// sweeps or when the budget rejects every candidate (naming the budget).
  /// When non-null, `area_filtered` receives the rejected count.
  [[nodiscard]] static std::vector<DseCandidate> admit(
      const DseSweep& sweep, std::size_t* area_filtered = nullptr);

  /// Memo key of one (candidate, model) evaluation — the identity the
  /// cache, export/import, and DseMemo::merge all agree on.
  [[nodiscard]] static std::string memo_key(const DseCandidate& candidate,
                                            const xl::dnn::ModelSpec& model);

  /// Evaluate every (candidate, model) pair of `slice` missing from the
  /// memo, insert the fresh reports, and return just those fresh entries
  /// (sorted by key) — the compact delta another engine can import or
  /// merge. Evaluator calls paid == returned entry count; a warm
  /// slice returns an empty memo. Always uses the persistent memo,
  /// regardless of Options::cache_enabled (the memo *is* the product here).
  [[nodiscard]] DseMemo populate(const std::vector<DseCandidate>& slice,
                                 const std::vector<xl::dnn::ModelSpec>& models);
  [[nodiscard]] DseMemo populate(const std::vector<DseCandidate>& slice,
                                 const std::vector<xl::dnn::ModelSpec>& models,
                                 const DseCandidateEvaluator& evaluate);

  /// Snapshot the memo cache, sorted by key.
  [[nodiscard]] DseMemo export_memo() const;

  /// Insert `memo`'s entries into the cache. Keys already present must
  /// agree bit-exactly with the incoming report (reports_bit_identical) or
  /// this throws std::runtime_error naming the key. Returns the number of
  /// newly inserted entries.
  std::size_t import_memo(const DseMemo& memo);

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  /// Replace the run options; the memo cache is kept.
  void set_options(Options options) { options_ = std::move(options); }
  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }
  void clear_cache() { cache_.clear(); }

 private:
  /// Evaluate every (candidate, model) pair missing from `store` (parallel
  /// per options_, pre-sized slots), returning the fresh (key, report)
  /// pairs in deterministic job order. `stats`, when non-null, accrues
  /// evaluations/cache_hits. Entries are NOT inserted into `store` here —
  /// the caller merges serially so completion order never matters.
  [[nodiscard]] std::vector<DseMemoEntry> evaluate_missing(
      const std::vector<DseCandidate>& candidates,
      const std::vector<xl::dnn::ModelSpec>& models,
      const DseCandidateEvaluator& evaluate,
      const std::unordered_map<std::string, AcceleratorReport>& store,
      DseStats* stats) const;

  Options options_;
  /// Memo of evaluator reports. Keyed on the candidate's architecture tuple,
  /// variant, resolution, shared knobs (mrs_per_bank, pitches, a DeviceParams
  /// digest), the effect-stage identity, and the model name (models are
  /// identified by name; area budgets are excluded on purpose — a candidate's
  /// report does not depend on the admitting budget).
  std::unordered_map<std::string, AcceleratorReport> cache_;
};

}  // namespace xl::core
