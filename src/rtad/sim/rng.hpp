// Deterministic random number generation for workload synthesis.
//
// xoshiro256** (Blackman & Vigna) — fast, high quality, and fully
// reproducible across platforms, which std::mt19937 distributions are not
// (libstdc++/libc++ disagree on std::*_distribution). All distribution
// sampling is implemented here so traces are bit-identical everywhere.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

namespace rtad::sim {

class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed) noexcept {
    // splitmix64 seeding as recommended by the xoshiro authors.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9E3779B97F4A7C15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
      s = z ^ (z >> 31);
    }
  }

  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, 1).
  double uniform() noexcept { return to_unit(next()); }

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction.
  std::uint64_t uniform_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    return scale_below(next(), bound);
  }

  /// The maps uniform() and uniform_below() apply to one raw next() draw.
  /// A caller that must consume draws before it knows whether it needs
  /// their values takes them raw and maps them later, bit-identically.
  static double to_unit(std::uint64_t raw) noexcept {
    return static_cast<double>(raw >> 11) * 0x1.0p-53;
  }
  static std::uint64_t scale_below(std::uint64_t raw,
                                   std::uint64_t bound) noexcept {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(raw) * bound) >> 64);
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Standard normal via Box–Muller (no cached spare: determinism > speed).
  double normal() noexcept {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Geometric: number of failures before first success, success prob p.
  std::uint64_t geometric(double p) noexcept {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return UINT64_MAX;
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return static_cast<std::uint64_t>(std::log(u) / std::log1p(-p));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

/// Geometric sampler with a fixed success probability. Caches log1p(-p),
/// which is loop-invariant across draws; the arithmetic on each uniform
/// draw is unchanged from Xoshiro256::geometric, so the sampled sequence
/// is bit-identical — this only removes a transcendental per sample from
/// trace-generation hot loops.
class GeometricSampler {
 public:
  explicit GeometricSampler(double p) noexcept
      : p_(p), log1mp_(p > 0.0 && p < 1.0 ? std::log1p(-p) : -1.0) {}

  std::uint64_t sample(Xoshiro256& rng) const noexcept {
    if (p_ >= 1.0) return 0;
    if (p_ <= 0.0) return UINT64_MAX;
    double u = rng.uniform();
    while (u <= 0.0) u = rng.uniform();
    return static_cast<std::uint64_t>(std::log(u) / log1mp_);
  }

 private:
  double p_;
  double log1mp_;
};

/// Precomputed Zipf(s) sampler over [0, n). Branch-site popularity in real
/// programs is heavy-tailed; SPEC CINT branch profiles are commonly modeled
/// as Zipf-like, which is what the workload models use.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
    // Bucket index: lookup_[k] = first i with cdf_[i] >= k/kBuckets. With
    // kBuckets a power of two, u*kBuckets and k/kBuckets are exact, so the
    // bucket brackets the answer and sample() returns the same index as a
    // full binary search — it just starts with far tighter bounds.
    lookup_.resize(kBuckets + 1);
    std::size_t j = 0;
    for (std::size_t k = 0; k <= kBuckets; ++k) {
      const double threshold =
          static_cast<double>(k) / static_cast<double>(kBuckets);
      while (j + 1 < cdf_.size() && cdf_[j] < threshold) ++j;
      lookup_[k] = j;
    }
  }

  std::size_t sample(Xoshiro256& rng) const noexcept {
    return index_of(rng.uniform());
  }

  /// The index sample() returns for the uniform draw `u` in [0, 1). Split
  /// out so a caller can take the draw now and pay for the search only if
  /// it turns out to need the index.
  std::size_t index_of(double u) const noexcept {
    const auto b = static_cast<std::size_t>(
        u * static_cast<double>(kBuckets));  // u < 1 => b < kBuckets
    // Binary search for the first cdf entry >= u, within the bucket bounds.
    std::size_t lo = lookup_[b], hi = lookup_[b + 1];
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  static constexpr std::size_t kBuckets = 256;
  std::vector<double> cdf_;
  std::vector<std::size_t> lookup_;
};

}  // namespace rtad::sim
