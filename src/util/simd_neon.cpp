// NEON posting-block kernels for aarch64, where NEON is baseline (no extra
// compile flags). On other targets this TU degrades to a stub reporting the
// ISA unavailable.
#include "util/simd.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace koko {
namespace simd {
namespace {

// In-register inclusive prefix sum of 4 dwords (shift-in-zeros via vext of
// a zero vector).
inline uint32x4_t PrefixSum4(uint32x4_t v) {
  const uint32x4_t zero = vdupq_n_u32(0);
  v = vaddq_u32(v, vextq_u32(zero, v, 3));
  v = vaddq_u32(v, vextq_u32(zero, v, 2));
  return v;
}

void UnpackBlockNeon(const uint8_t* p, uint32_t width, uint32_t first,
                     size_t count, uint32_t* out) {
  if (count == 0) return;
  const size_t gaps = count - 1;
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
    for (size_t i = 0; i < gaps; ++i) tmp[i] = ExtractPackedGap(p, width, i);
  }
  uint32_t sid = first;
  out[0] = sid;
  size_t i = 0;
  while (i + 4 <= gaps) {
    const uint32x4_t v = vld1q_u32(tmp + i);
    const uint32x4_t sums = vaddq_u32(PrefixSum4(v), vdupq_n_u32(sid));
    vst1q_u32(out + 1 + i, sums);
    sid = vgetq_lane_u32(sums, 3);
    i += 4;
  }
  for (; i < gaps; ++i) {
    sid += tmp[i];
    out[1 + i] = sid;
  }
}

size_t IntersectSortedNeon(const uint32_t* a, size_t na, const uint32_t* b,
                           size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, k = 0;
  while (i + 4 <= na && j + 4 <= nb) {
    const uint32x4_t va = vld1q_u32(a + i);
    const uint32x4_t vb = vld1q_u32(b + j);
    uint32x4_t cmp = vceqq_u32(va, vb);
    cmp = vorrq_u32(cmp, vceqq_u32(va, vextq_u32(vb, vb, 1)));
    cmp = vorrq_u32(cmp, vceqq_u32(va, vextq_u32(vb, vb, 2)));
    cmp = vorrq_u32(cmp, vceqq_u32(va, vextq_u32(vb, vb, 3)));
    // Compact matched lanes in order (NEON has no movemask; the narrowed
    // per-lane flags drive scalar emission).
    const uint16x4_t flags = vmovn_u32(cmp);
    if (vget_lane_u16(flags, 0)) out[k++] = a[i + 0];
    if (vget_lane_u16(flags, 1)) out[k++] = a[i + 1];
    if (vget_lane_u16(flags, 2)) out[k++] = a[i + 2];
    if (vget_lane_u16(flags, 3)) out[k++] = a[i + 3];
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

constexpr Kernels kNeonKernels = {
    UnpackBlockNeon,
    IntersectSortedNeon,
};

}  // namespace

const Kernels* GetNeonKernels() { return &kNeonKernels; }

}  // namespace simd
}  // namespace koko

#else  // !(aarch64 && NEON)

namespace koko {
namespace simd {
const Kernels* GetNeonKernels() { return nullptr; }
}  // namespace simd
}  // namespace koko

#endif
