#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>

#include "stats.hpp"

namespace xlb {
namespace {

/// One chunk of the host-speed kernel: formatted keys into a hash map and
/// scalar transcendentals, the mix of the DSE sweep's evaluations and memo.
/// Returns a value derived from every step, so none of it can be optimized
/// away.
double calibration_chunk(std::uint32_t chunk) {
  constexpr std::uint32_t kKeys = 1000;
  std::unordered_map<std::string, double> table;
  double acc = 0.0;
  for (std::uint32_t i = chunk * kKeys; i < (chunk + 1) * kKeys; ++i) {
    const double x = static_cast<double>(i % 1000) * 0.001 + 0.5;
    acc += std::sqrt(x) * std::log1p(x) / (1.0 + x * x) + std::exp(-x);
    table[std::to_string((i * 2654435761u) % 50000u) + "|key"] += acc;
  }
  return acc + static_cast<double>(table.size());
}

}  // namespace

void HostSpeed::sample() {
  constexpr std::size_t kPasses = 3;
  constexpr std::uint32_t kChunks = 64;
  const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> sums(threads, 0.0);
  for (std::size_t p = 0; p < kPasses; ++p) {
    std::atomic<std::uint32_t> next{0};
    const auto drain = [&](std::size_t t) {
      for (std::uint32_t c; (c = next.fetch_add(1)) < kChunks;) sums[t] += calibration_chunk(c);
    };
    const auto t0 = Clock::now();
    {
      std::vector<std::jthread> helpers;  // Joined on leaving the scope.
      for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(drain, t);
      drain(0);
    }
    pass_us_.push_back(us_between(t0, Clock::now()));
  }
  static volatile double sink = 0.0;
  for (const double s : sums) sink = sink + s;
}

double HostSpeed::slowdown() const { return median(pass_us_) / kReferenceUs; }

void Metrics::set(std::string name, double value, std::string unit) {
  entries_.push_back({std::move(name), value, std::move(unit)});
}

bool Checks::expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failed_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
  return ok;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1u << 18);
}

std::int64_t Tracer::ns(Clock::time_point t) const noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
}

void Tracer::record(const char* name, const char* cat, Clock::time_point begin,
                    Clock::time_point end, std::uint64_t rid) {
  if (!enabled_) return;
  spans_.push_back({name, cat, ns(begin), ns(end), rid});
}

double Tracer::total_us(const char* name) const {
  const std::string key = name;
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (key == s.name) total += s.end_ns - s.begin_ns;
  }
  return static_cast<double>(total) / 1e3;
}

bool Tracer::write_chrome_json(const std::string& path, const std::string& meta) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << meta << ",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans_) {
    // Complete events ("X"): ts/dur in microseconds. The rid is the span's
    // request or pass id, so Perfetto groups one request's spans by it.
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"rid\":%llu}}",
                  first ? "" : ",\n", s.name, s.cat,
                  static_cast<double>(s.begin_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.begin_ns) / 1e3,
                  static_cast<unsigned long long>(s.rid));
    out << buf;
    first = false;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace xlb
