// AVX2 posting-block kernels. Compiled with -mavx2 on x86 (see
// CMakeLists.txt); otherwise this TU degrades to a stub reporting the ISA
// unavailable. Selected at runtime only when cpuid reports AVX2.
#include "util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace koko {
namespace simd {
namespace {

// vpermd index table compacting the dword lanes selected by an 8-bit match
// mask to the front of the register.
struct PermTable {
  uint32_t idx[256][8];
};

constexpr PermTable MakePermTable() {
  PermTable t{};
  for (int m = 0; m < 256; ++m) {
    int k = 0;
    for (int lane = 0; lane < 8; ++lane) {
      if (m & (1 << lane)) t.idx[m][k++] = static_cast<uint32_t>(lane);
    }
    for (; k < 8; ++k) t.idx[m][k] = 0;
  }
  return t;
}

constexpr PermTable kCompact = MakePermTable();

// Lane-rotation index vectors for the all-pairs comparison: rotation r maps
// lane l to source lane (l + r) % 8.
constexpr PermTable MakeRotTable() {
  PermTable t{};
  for (int r = 0; r < 8; ++r) {
    for (int l = 0; l < 8; ++l) t.idx[r][l] = static_cast<uint32_t>((l + r) % 8);
  }
  return t;
}

constexpr PermTable kRot = MakeRotTable();

// In-register inclusive prefix sum of 8 dwords.
inline __m256i PrefixSum8(__m256i v) {
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
  v = _mm256_add_epi32(v, _mm256_slli_si256(v, 8));
  // Carry the low 128-bit lane's total into every high-lane element.
  const __m256i lane_totals = _mm256_shuffle_epi32(v, 0xff);
  const __m256i carry = _mm256_permute2x128_si256(lane_totals, lane_totals, 0x08);
  return _mm256_add_epi32(v, carry);
}

// Per-(width, bit-phase) lanes for the 4-wide bit-unpack: a pshufb mask
// moving each field's four candidate bytes into its dword lane, plus the
// per-lane residual shift. Valid for widths 1..25 — a field starting at
// bit phase <= 7 then spans at most 7 + 25 = 32 bits, i.e. four bytes, and
// the fourth field's last byte sits at offset (7 + 3*25)/8 + 3 = 13 < 16,
// inside one 16-byte load.
struct PackedLut {
  uint8_t shuf[26][8][16];
  uint32_t shift[26][8][4];
};

constexpr PackedLut MakePackedLut() {
  PackedLut t{};
  for (int w = 1; w <= 25; ++w) {
    for (int ph = 0; ph < 8; ++ph) {
      for (int k = 0; k < 4; ++k) {
        const int bit = ph + k * w;
        for (int j = 0; j < 4; ++j) {
          t.shuf[w][ph][4 * k + j] = static_cast<uint8_t>((bit >> 3) + j);
        }
        t.shift[w][ph][k] = static_cast<uint32_t>(bit & 7);
      }
    }
  }
  return t;
}

constexpr PackedLut kPacked = MakePackedLut();

// In-register inclusive prefix sum of 4 dwords (128-bit half).
inline __m128i PrefixSum4(__m128i v) {
  v = _mm_add_epi32(v, _mm_slli_si128(v, 4));
  return _mm_add_epi32(v, _mm_slli_si128(v, 8));
}

void UnpackBlockAvx2(const uint8_t* p, uint32_t width, uint32_t first,
                     size_t count, uint32_t* out) {
  if (count == 0) return;
  const size_t gaps = count - 1;
  uint32_t sid = first;
  out[0] = sid;
  size_t i = 0;
  if (width >= 1 && width <= 25) {
    // Four fields per step: one unaligned 16-byte load, pshufb each
    // field's bytes into a dword lane, variable right-shift by the bit
    // phase, mask. The load must stay inside the block payload, so the
    // vector loop stops 16 bytes short of the end; widths > 25 (gaps over
    // 33M — pathological) take the scalar tail from the start.
    const uint64_t bits = static_cast<uint64_t>(gaps) * width;
    const size_t payload =
        static_cast<size_t>(((bits + 7) / 8 + 3) & ~uint64_t{3});
    const __m128i mask =
        _mm_set1_epi32(static_cast<int>((1u << width) - 1u));
    uint64_t base_bit = 0;
    // Eight fields per step — two 16-byte halves (fields 0-3 and 4-7, each
    // with its own bit phase) unpacked by one 256-bit shuffle/shift, so the
    // serial sid carry advances once per eight gaps instead of four.
    const __m256i mask8 = _mm256_set_m128i(mask, mask);
    __m256i vsid = _mm256_set1_epi32(static_cast<int>(sid));
    const __m256i seven = _mm256_set1_epi32(7);
    while (i + 8 <= gaps &&
           ((base_bit + 4u * width) >> 3) + 16 <= payload) {
      const uint64_t bit2 = base_bit + 4u * width;
      const unsigned ph0 = static_cast<unsigned>(base_bit & 7);
      const unsigned ph1 = static_cast<unsigned>(bit2 & 7);
      const __m256i raw = _mm256_set_m128i(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p + (bit2 >> 3))),
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(p + (base_bit >> 3))));
      const __m256i shuf = _mm256_set_m128i(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(kPacked.shuf[width][ph1])),
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(kPacked.shuf[width][ph0])));
      const __m256i sh = _mm256_set_m128i(
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(kPacked.shift[width][ph1])),
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(kPacked.shift[width][ph0])));
      const __m256i v = _mm256_and_si256(
          _mm256_srlv_epi32(_mm256_shuffle_epi8(raw, shuf), sh), mask8);
      const __m256i sums = _mm256_add_epi32(PrefixSum8(v), vsid);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 1 + i), sums);
      vsid = _mm256_permutevar8x32_epi32(sums, seven);
      i += 8;
      base_bit += 8u * width;
    }
    sid = static_cast<uint32_t>(
        _mm_cvtsi128_si32(_mm256_castsi256_si128(vsid)));
    while (i + 4 <= gaps && (base_bit >> 3) + 16 <= payload) {
      const unsigned ph = static_cast<unsigned>(base_bit & 7);
      const __m128i raw = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(p + (base_bit >> 3)));
      const __m128i shuf = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(kPacked.shuf[width][ph]));
      const __m128i sh = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(kPacked.shift[width][ph]));
      const __m128i v = _mm_and_si128(
          _mm_srlv_epi32(_mm_shuffle_epi8(raw, shuf), sh), mask);
      const __m128i sums =
          _mm_add_epi32(PrefixSum4(v), _mm_set1_epi32(static_cast<int>(sid)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 + i), sums);
      sid = static_cast<uint32_t>(_mm_extract_epi32(sums, 3));
      i += 4;
      base_bit += 4u * width;
    }
  }
  for (; i < gaps; ++i) {
    sid += ExtractPackedGap(p, width, i);
    out[1 + i] = sid;
  }
}

size_t IntersectSortedAvx2(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, k = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
    __m256i cmp = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      const __m256i rot = _mm256_permutevar8x32_epi32(
          vb, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kRot.idx[r])));
      cmp = _mm256_or_si256(cmp, _mm256_cmpeq_epi32(va, rot));
    }
    const int mask = _mm256_movemask_ps(_mm256_castsi256_ps(cmp));
    const __m256i perm = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kCompact.idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        _mm256_permutevar8x32_epi32(va, perm));
    k += static_cast<size_t>(_mm_popcnt_u32(static_cast<unsigned>(mask)));
    const uint32_t amax = a[i + 7], bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    const uint32_t x = a[i], y = b[j];
    if (x < y) {
      ++i;
    } else if (y < x) {
      ++j;
    } else {
      out[k++] = x;
      ++i;
      ++j;
    }
  }
  return k;
}

constexpr Kernels kAvx2Kernels = {
    UnpackBlockAvx2,
    IntersectSortedAvx2,
};

}  // namespace

const Kernels* GetAvx2Kernels() { return &kAvx2Kernels; }

}  // namespace simd
}  // namespace koko

#else  // !__AVX2__

namespace koko {
namespace simd {
const Kernels* GetAvx2Kernels() { return nullptr; }
}  // namespace simd
}  // namespace koko

#endif
