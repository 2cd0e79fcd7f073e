// SSE4.2 posting-block kernels. This translation unit is compiled with
// -msse4.2 on x86 (see CMakeLists.txt); on any other target, or when the
// flag is missing, it compiles to a stub that reports the ISA unavailable,
// so the build never breaks and dispatch simply skips SSE.
#include "util/simd.h"

#if defined(__SSE4_2__) && defined(__POPCNT__)

#include <nmmintrin.h>
#include <smmintrin.h>

namespace koko {
namespace simd {
namespace {

// pshufb control bytes that compact the dword lanes selected by a 4-bit
// match mask to the front of the register (unselected tail lanes are
// zeroed; only the popcount-prefix of the store is counted).
struct ShuffleTable {
  uint8_t b[16][16];
};

constexpr ShuffleTable MakeShuffleTable() {
  ShuffleTable t{};
  for (int m = 0; m < 16; ++m) {
    int k = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (m & (1 << lane)) {
        for (int byte = 0; byte < 4; ++byte) {
          t.b[m][k++] = static_cast<uint8_t>(4 * lane + byte);
        }
      }
    }
    for (; k < 16; ++k) t.b[m][k] = 0x80;
  }
  return t;
}

constexpr ShuffleTable kCompact = MakeShuffleTable();

// In-register inclusive prefix sum of 4 dwords.
inline __m128i PrefixSum4(__m128i v) {
  v = _mm_add_epi32(v, _mm_slli_si128(v, 4));
  v = _mm_add_epi32(v, _mm_slli_si128(v, 8));
  return v;
}

void UnpackBlockSse(const uint8_t* p, uint32_t width, uint32_t first,
                    size_t count, uint32_t* out) {
  if (count == 0) return;
  const size_t gaps = count - 1;
  // Extract the fixed-width gaps into a flat dword buffer (trivially
  // vectorizable for byte/word/dword widths), then vector prefix-sum.
  uint32_t tmp[128];
  if (width == 8) {
    for (size_t i = 0; i < gaps; ++i) tmp[i] = p[i];
  } else if (width == 16) {
    for (size_t i = 0; i < gaps; ++i) {
      uint16_t v;
      std::memcpy(&v, p + 2 * i, 2);
      tmp[i] = v;
    }
  } else if (width == 32) {
    for (size_t i = 0; i < gaps; ++i) std::memcpy(&tmp[i], p + 4 * i, 4);
  } else {
    // Generic widths: the two-word funnel shift dominates, so feed the
    // running sum directly — a tmp round-trip only adds store traffic.
    uint32_t sid = first;
    out[0] = sid;
    for (size_t i = 0; i < gaps; ++i) {
      sid += ExtractPackedGap(p, width, i);
      out[1 + i] = sid;
    }
    return;
  }
  uint32_t sid = first;
  out[0] = sid;
  size_t i = 0;
  __m128i vsid = _mm_set1_epi32(static_cast<int>(sid));
  while (i + 4 <= gaps) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tmp + i));
    const __m128i sums = _mm_add_epi32(PrefixSum4(v), vsid);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 1 + i), sums);
    vsid = _mm_shuffle_epi32(sums, 0xff);
    i += 4;
  }
  sid = static_cast<uint32_t>(_mm_cvtsi128_si32(vsid));
  for (; i < gaps; ++i) {
    sid += tmp[i];
    out[1 + i] = sid;
  }
}

size_t IntersectSortedSse(const uint32_t* a, size_t na, const uint32_t* b,
                          size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, k = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + j));
    // All-pairs equality via the three dword rotations of vb.
    __m128i cmp = _mm_cmpeq_epi32(va, vb);
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    cmp = _mm_or_si128(
        cmp, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(cmp));
    const __m128i sh =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(kCompact.b[mask]));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + k),
                     _mm_shuffle_epi8(va, sh));
    k += static_cast<size_t>(_mm_popcnt_u32(static_cast<unsigned>(mask)));
    const uint32_t amax = a[i + 3], bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
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

constexpr Kernels kSseKernels = {
    UnpackBlockSse,
    IntersectSortedSse,
};

}  // namespace

const Kernels* GetSseKernels() { return &kSseKernels; }

}  // namespace simd
}  // namespace koko

#else  // !(__SSE4_2__ && __POPCNT__)

namespace koko {
namespace simd {
const Kernels* GetSseKernels() { return nullptr; }
}  // namespace simd
}  // namespace koko

#endif
