#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "common/error.hpp"

namespace topil {

/// Deterministic random number generator used throughout the library.
///
/// All stochastic components (weight initialization, workload generation,
/// sensor noise, epsilon-greedy exploration) draw from an explicitly seeded
/// Rng so experiments are reproducible bit-for-bit across runs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    TOPIL_REQUIRE(lo <= hi, "uniform bounds inverted");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int uniform_int(int lo, int hi) {
    TOPIL_REQUIRE(lo <= hi, "uniform_int bounds inverted");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Gaussian with the given mean and standard deviation (0 allowed).
  /// Scaling a standard draw is how libstdc++'s normal_distribution forms
  /// `ret * stddev + mean` itself, so results and engine advances match
  /// `normal_distribution(mean, stddev)` bit for bit, without its
  /// stddev > 0 precondition.
  double gaussian(double mean, double stddev) {
    TOPIL_REQUIRE(stddev >= 0.0, "negative stddev");
    return std::normal_distribution<double>(0.0, 1.0)(engine_) * stddev +
           mean;
  }

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate) {
    TOPIL_REQUIRE(rate > 0.0, "exponential rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    TOPIL_REQUIRE(p >= 0.0 && p <= 1.0, "probability out of range");
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Random index in [0, n).
  std::size_t index(std::size_t n) {
    TOPIL_REQUIRE(n > 0, "index over empty range");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child generator (for parallel components).
  Rng fork() { return Rng(engine_() ^ 0xd1b54a32d192ed03ull); }

  /// Independent, reproducible stream for parallel task `index` under a
  /// shared base seed. Streams are derived purely from (seed, index) with
  /// a splitmix64 finalizer, never from shared generator state, so the
  /// same index always sees the same stream regardless of job count or
  /// execution order (the determinism contract of `parallel_for.hpp`).
  static Rng stream(std::uint64_t seed, std::uint64_t index) {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return Rng(z ^ (z >> 31));
  }

  std::mt19937_64& engine() { return engine_; }
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace topil
