// Shared plumbing of the benchmark: clock, metric sink, correctness checks,
// the host-speed meter, and the in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace xlb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Metrics of one run, in insertion order, printed as the result's
/// "metrics" object.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void set(std::string name, double value, std::string unit);
  [[nodiscard]] const std::vector<Entry>& entries() const noexcept { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Operation and correctness accounting. Every timed operation counts as
/// attempted; an operation fails when it throws or when a check on its
/// output does not hold. Failures are printed as they happen.
class Checks {
 public:
  void attempt(std::size_t n = 1) noexcept { attempted_ += n; }
  /// Records a failed check (printed with `what`) and returns `ok`.
  bool expect(bool ok, const std::string& what);
  void fail(const std::string& what) { (void)expect(false, what); }

  [[nodiscard]] std::size_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Host-speed meter. A shared host's speed drifts by tens of percent over
/// minutes (clock frequency, neighbours on sibling hyperthreads), and
/// CPU-bound timings drift with it: over three minutes on a shared 4-vCPU
/// VM the 10-second medians of the cold DSE sweep ranged 138-209 ms
/// (quartile spread 0.25). One pass runs a fixed kernel owned by the
/// benchmark (formatted keys into a hash map, scalar transcendentals), so no
/// change to the programs under test moves it. The pass is cut into chunks
/// that one thread per hardware thread claims as it goes, so its time
/// follows the speed of all the cores together, as the parallel DSE sweep's
/// and the CNN GEMMs' do: over four minutes, the ratio of their 10-second
/// medians to the meter's spread 0.02-0.04 (0.06-0.09 unscaled), where a
/// single-threaded pass, following one core, gave 0.10. CPU-bound figures
/// are reported as they would read on a host where one pass takes
/// kReferenceUs.
class HostSpeed {
 public:
  /// One pass's time on the reference host: about the median on a shared
  /// 4-vCPU x86-64 VM, so scaled figures read close to raw ones.
  static constexpr double kReferenceUs = 3300.0;

  /// Times three meter passes and keeps each.
  void sample();
  /// Median pass time over every sample, over kReferenceUs: above 1 while
  /// the host runs slower than the reference. Throws when nothing was
  /// sampled.
  [[nodiscard]] double slowdown() const;
  /// A rate measured on this host, as it would read on the reference host.
  [[nodiscard]] double rate(double per_s) const { return per_s * slowdown(); }
  /// A CPU-bound duration measured on this host, likewise.
  [[nodiscard]] double time(double t) const { return t / slowdown(); }

 private:
  std::vector<double> pass_us_;
};

/// Spans recorded by the benchmark around its calls into each layer. Kept
/// in a preallocated vector on the recording thread and written once, at
/// the end, as Chrome trace-event JSON. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// `name` and `cat` must be string literals (or otherwise outlive the
  /// tracer); `rid` groups the spans of one request or pass.
  void record(const char* name, const char* cat, Clock::time_point begin,
              Clock::time_point end, std::uint64_t rid = 0);

  /// Summed duration (us) of spans named `name`.
  [[nodiscard]] double total_us(const char* name) const;

  /// Write every span as Chrome trace-event JSON (viewable in Perfetto);
  /// `meta` is emitted verbatim as the "otherData" object. Returns false
  /// when the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path,
                                       const std::string& meta) const;

 private:
  struct Span {
    const char* name = "";
    const char* cat = "";  ///< Module the span's callee belongs to.
    std::int64_t begin_ns = 0;  ///< Since the tracer was created.
    std::int64_t end_ns = 0;
    std::uint64_t rid = 0;
  };

  [[nodiscard]] std::int64_t ns(Clock::time_point t) const noexcept;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Times `fn` repeatedly, recording a span `name` per call: at least
/// `min_reps` calls, then more until `budget_s` elapsed or `max_reps` calls
/// ran. Returns each call's us.
template <typename Fn>
std::vector<double> time_reps(Tracer& tracer, const char* name, const char* cat,
                              double budget_s, std::size_t min_reps, std::size_t max_reps,
                              Fn&& fn) {
  std::vector<double> us;
  const auto start = Clock::now();
  while (us.size() < max_reps &&
         (us.size() < min_reps || us_between(start, Clock::now()) < budget_s * 1e6)) {
    const auto t0 = Clock::now();
    fn();
    const auto t1 = Clock::now();
    tracer.record(name, cat, t0, t1);
    us.push_back(us_between(t0, t1));
  }
  return us;
}

}  // namespace xlb
