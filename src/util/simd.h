#ifndef KOKO_UTIL_SIMD_H_
#define KOKO_UTIL_SIMD_H_

namespace koko {
namespace simd {

/// Always "scalar": the posting kernels (src/index/sid_ops.cpp) have one
/// portable implementation. This header exists only because the repository
/// benchmark (perfbench/main.cpp) includes it and records the name in its
/// environment line; delete it once that field is dropped.
inline const char* ActiveIsaName() { return "scalar"; }

}  // namespace simd
}  // namespace koko

#endif  // KOKO_UTIL_SIMD_H_
