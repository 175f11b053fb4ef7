// The three studies the benchmark runs. Constructing a study is its set-up
// (timed as setup_s). measure() is called for several slices interleaved
// with the other studies' slices, then report() turns everything measured
// into end-to-end metrics (tracing off), scaled to the reference host speed
// where the host-speed meter tracks their work. trace() records spans around the
// calls into each layer and derives the per-layer metrics from them.
#pragma once

#include <cstdint>
#include <memory>

#include "common.hpp"

namespace xlb {

class Study {
 public:
  virtual ~Study() = default;
  Study() = default;
  Study(const Study&) = delete;
  Study& operator=(const Study&) = delete;

  /// Measures one slice of about `budget_s` seconds (at least one
  /// operation), adding to what earlier slices measured.
  virtual void measure(double budget_s, Checks& checks) = 0;

  /// End-to-end metrics over every slice measured so far. `host` was
  /// sampled before each of this study's slices; figures whose work it
  /// tracks are scaled by it.
  virtual void report(Metrics& metrics, Checks& checks, const HostSpeed& host) = 0;

  /// Per-layer metrics from spans, spending about `budget_s` seconds. When
  /// `primary`, also times the study's main loop untraced and traced and
  /// reports the ratio minus one as trace.overhead_frac.
  virtual void trace(double budget_s, bool primary, Tracer& tracer, Metrics& metrics,
                     Checks& checks) = 0;
};

/// Accuracy sweep of the four reduced Table I CNNs through
/// api::Session::evaluate_functional, full effect stack.
[[nodiscard]] std::unique_ptr<Study> make_cnn_study(std::uint64_t seed);

/// Open-loop Poisson serving of the proxy MLP at two fixed rates.
[[nodiscard]] std::unique_ptr<Study> make_serve_study(std::uint64_t seed);

/// Cold and warm Session::run_dse over the Table I zoo.
[[nodiscard]] std::unique_ptr<Study> make_dse_study();

}  // namespace xlb
