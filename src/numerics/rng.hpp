// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the repository (FPV wafer maps, synthetic
// datasets, weight initialization, Monte-Carlo sweeps) draws from an Rng
// seeded explicitly, so each bench/test run is bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace xl::numerics {

/// Thin deterministic wrapper over std::mt19937_64 with the distribution
/// helpers this project needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC705511D47ULL) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0);
  /// Gaussian with given mean and standard deviation.
  [[nodiscard]] double gaussian(double mean = 0.0, double stddev = 1.0);
  /// Gaussian truncated to [lo, hi] by rejection sampling. `max_attempts`
  /// bounds the resampling budget; only when a genuine (stddev > 0)
  /// rejection loop exhausts it does the draw fall back to clamp(mean).
  /// A degenerate stddev == 0 returns clamp(mean) immediately (the
  /// distribution is a point mass; resampling could never succeed).
  /// Throws std::invalid_argument on lo > hi, stddev < 0, or
  /// max_attempts < 1.
  [[nodiscard]] double truncated_gaussian(double mean, double stddev, double lo,
                                          double hi, int max_attempts = 64);
  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  [[nodiscard]] bool bernoulli(double p);

  /// n i.i.d. gaussian samples.
  [[nodiscard]] std::vector<double> gaussian_vector(std::size_t n, double mean, double stddev);

  /// Fisher-Yates shuffle of an index range [0, n).
  [[nodiscard]] std::vector<std::size_t> permutation(std::size_t n);

 private:
  std::mt19937_64 engine_;
};

// --- Stateless counter-based hashing -----------------------------------------
// Where a stateful Rng would make results depend on draw *order* (and hence on
// thread count or tiling), these pure functions derive a draw from a key
// alone. The effect pipeline keys photodetector noise on the dot product's
// operands, so scalar, batched, and any-thread-count execution sample the
// same value.

/// SplitMix64 finalizer: a high-quality 64-bit bijective mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// Fold `v` into key `h` (order-sensitive, deterministic).
[[nodiscard]] std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) noexcept;

/// Uniform double in [0, 1) derived from `key` alone.
[[nodiscard]] double hash_unit(std::uint64_t key) noexcept;

/// Standard normal draw derived from `key` alone (Box-Muller over two
/// decorrelated hash_unit streams).
[[nodiscard]] double hash_gaussian(std::uint64_t key) noexcept;

/// Counter-splittable bulk sampler:
///   out[i] == hash_gaussian(hash_combine(key, base_counter + i))
/// bit for bit, for i in [0, n) (counter addition wraps mod 2^64). A pure
/// function of (key, counter): any slicing of the counter range across
/// calls or threads yields identical samples, so bulk draws are
/// index-addressable like Qlattice's per-site split RNG. Dispatches to the
/// AVX2 kernel (vectorized splitmix64 mixing + Box-Muller) when available;
/// SIMD and scalar paths agree exactly.
void hash_gaussian_n(std::uint64_t key, std::uint64_t base_counter,
                     std::size_t n, double* out) noexcept;

}  // namespace xl::numerics
