// Deterministic random-number utilities.
//
// Everything stochastic in HeteroG (synthetic profiling noise, policy
// sampling, MCMC proposals, weight init) draws from an explicitly-seeded
// Rng instance so runs are reproducible bit-for-bit. No global RNG exists.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace heterog {

/// Seedable RNG wrapper around a 64-bit Mersenne twister, with the handful
/// of draw shapes the library needs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    check(lo <= hi, "uniform: lo > hi");
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi) {
    check(lo <= hi, "uniform_int: lo > hi");
    return std::uniform_int_distribution<int>(lo, hi)(engine_);
  }

  /// Standard normal draw.
  double normal() { return normal_(engine_); }

  /// Normal with given mean / stddev.
  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Samples an index from an (unnormalised) non-negative weight vector.
  int sample_weighted(const std::vector<double>& weights);

  /// Samples an index from a probability vector that sums to ~1.
  int sample_categorical(const std::vector<double>& probabilities);

  /// Derives an independent child stream; deterministic in (seed, salt).
  Rng fork(uint64_t salt) const {
    return Rng(seed_mix_ ^ (salt * 0x9E3779B97F4A7C15ULL + 0xBF58476D1CE4E5B9ULL));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  uint64_t seed_mix_ = engine_();
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace heterog
