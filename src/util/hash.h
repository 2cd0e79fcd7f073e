#ifndef KOKO_UTIL_HASH_H_
#define KOKO_UTIL_HASH_H_

#include <cstdint>
#include <string_view>

namespace koko {

/// 64-bit FNV-1a. Used for deterministic, platform-independent hashing of
/// strings (embedding seeds, feature hashing, cache keys).
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// SplitMix64 finaliser; turns a counter/seed into a well-mixed 64-bit value.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Boost-style hash combining.
inline uint64_t HashCombine(uint64_t a, uint64_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

}  // namespace koko

#endif  // KOKO_UTIL_HASH_H_
