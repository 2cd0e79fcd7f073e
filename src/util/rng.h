#ifndef KOKO_UTIL_RNG_H_
#define KOKO_UTIL_RNG_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace koko {

/// \brief Deterministic 64-bit PRNG (xoshiro256**).
///
/// All randomised components (corpus generators, synthetic benchmarks,
/// property tests, embeddings) are seeded explicitly so every experiment is
/// exactly reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    uint64_t x = seed;
    for (auto& s : state_) {
      x = Mix64(x);
      s = x;
    }
  }

  /// Seeds from a string (e.g. an experiment name).
  static Rng FromString(std::string_view name) { return Rng(Fnv1a64(name)); }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Uniform(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// True with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Uniformly chosen element of a non-empty vector.
  template <typename T>
  const T& Choice(const std::vector<T>& items) {
    return items[Uniform(items.size())];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (size_t i = items.size(); i > 1; --i) {
      size_t j = Uniform(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4];
};

}  // namespace koko

#endif  // KOKO_UTIL_RNG_H_
