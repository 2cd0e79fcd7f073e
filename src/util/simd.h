#ifndef KOKO_UTIL_SIMD_H_
#define KOKO_UTIL_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace koko {
namespace simd {

/// \brief Runtime-dispatched SIMD kernels for the 128-sid posting blocks.
///
/// The hot loops of DPLI — bit-packed gap decode and sorted-set
/// intersection — compile once per instruction set into separate
/// translation units (simd_sse.cpp with -msse4.2, simd_avx2.cpp with
/// -mavx2, simd_neon.cpp on aarch64) plus a portable scalar fallback. The
/// best ISA the CPU supports is chosen once, at first use, via cpuid; the
/// KOKO_SIMD environment variable (scalar|sse|avx2|neon) overrides the
/// choice for testing and differential runs. Call sites go through
/// `ActiveKernels()`, so `BlockList::DecodeBlock`, the skip-gallop
/// candidate step, `IntersectAllViews`, and the `KokoPathSidLookup`
/// filters all pick up vector kernels with zero call-site changes.

enum class Isa {
  kScalar = 0,
  kSse = 1,   // x86 SSE4.2 (+POPCNT)
  kAvx2 = 2,  // x86 AVX2
  kNeon = 3,  // aarch64 NEON
};

/// Extra element capacity `intersect_sorted`'s `out` buffer must provide
/// beyond min(na, nb): the vector kernels store a full (compacted) vector
/// register at the output cursor, so up to one register of lanes past the
/// final match is written with garbage before the count is returned.
inline constexpr size_t kIntersectOutSlack = 8;

/// The kernel table one ISA implements. All kernels are exact drop-in
/// replacements for each other: for any input, every ISA produces
/// byte-identical output (the differential suite in sid_ops_test.cpp
/// enforces this across every available ISA).
struct Kernels {
  /// Decodes one fixed-width bit-packed posting block (see BlockList):
  /// out[0] = first, then `count-1` gaps of `width` bits each, packed
  /// LSB-first into a little-endian bitstream whose total size is padded to
  /// a multiple of 4 bytes (so word-granular loads never cross the block's
  /// end). `width` <= 32; payload pre-validated; `p` may be unaligned.
  void (*unpack_block)(const uint8_t* p, uint32_t width, uint32_t first,
                       size_t count, uint32_t* out);

  /// Intersects two sorted, duplicate-free uint32 arrays into `out`,
  /// returning the number of matches. `out` must have capacity for
  /// min(na, nb) + kIntersectOutSlack elements (see above) and may not
  /// alias either input.
  size_t (*intersect_sorted)(const uint32_t* a, size_t na, const uint32_t* b,
                             size_t nb, uint32_t* out);
};

/// Human-readable ISA name ("scalar", "sse", "avx2", "neon") — the value
/// logged at startup and recorded as `simd_isa` in BENCH_micro.json.
const char* IsaName(Isa isa);

/// Kernel table for one ISA, or nullptr when that ISA is not compiled in
/// or not supported by this CPU. kScalar is always available.
const Kernels* KernelsFor(Isa isa);

/// Every ISA usable on this machine, scalar first — what the differential
/// property tests iterate over.
std::vector<Isa> AvailableIsas();

/// The ISA in effect (resolved once at first use: best available, unless
/// KOKO_SIMD overrides it).
Isa ActiveIsa();
const char* ActiveIsaName();

/// The active kernel table — the single indirection every posting-block
/// call site pays.
const Kernels& ActiveKernels();

/// Overrides the active ISA (tests and per-ISA benchmarks only; must be an
/// available ISA). Not synchronized against concurrent queries — switch
/// only while no query is in flight.
void SetActiveIsa(Isa isa);

/// Extracts gap `i` from a `width`-bit packed little-endian bitstream.
/// Shared by the scalar kernels and the structural validator. Requires the
/// stream to be padded to a multiple of 4 bytes (the BlockList contract):
/// the second word is only read when the field actually straddles a word
/// boundary, which the padding proof guarantees is in bounds.
inline uint32_t ExtractPackedGap(const uint8_t* p, uint32_t width, size_t i) {
  const size_t bit = i * width;
  const size_t word = bit >> 5;
  const unsigned shift = static_cast<unsigned>(bit & 31);
  uint32_t lo;
  std::memcpy(&lo, p + 4 * word, 4);
  uint64_t v = lo;
  if (shift + width > 32) {
    uint32_t hi;
    std::memcpy(&hi, p + 4 * word + 4, 4);
    v |= static_cast<uint64_t>(hi) << 32;
  }
  const uint64_t mask =
      width == 32 ? 0xffffffffull : ((1ull << width) - 1);
  return static_cast<uint32_t>((v >> shift) & mask);
}

// Per-ISA registration hooks (internal): each translation unit always
// compiles; it returns its kernel table when built with the matching ISA
// flags and nullptr otherwise, so the link never breaks on a toolchain
// without some ISA. CPU support is checked separately in KernelsFor.
const Kernels* GetSseKernels();
const Kernels* GetAvx2Kernels();
const Kernels* GetNeonKernels();

}  // namespace simd
}  // namespace koko

#endif  // KOKO_UTIL_SIMD_H_
