#include "util/simd.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "util/logging.h"

namespace koko {
namespace simd {

// ---- Scalar reference kernels ----------------------------------------------
//
// The portable fallback and the ground truth the vector kernels are
// differentially tested against. These are the exact loops the block call
// sites ran before dispatch existed.

namespace {

void UnpackBlockScalar(const uint8_t* p, uint32_t width, uint32_t first,
                       size_t count, uint32_t* out) {
  uint32_t sid = first;
  out[0] = sid;
  for (size_t i = 1; i < count; ++i) {
    sid += ExtractPackedGap(p, width, i - 1);
    out[i] = sid;
  }
}

size_t IntersectSortedScalar(const uint32_t* a, size_t na, const uint32_t* b,
                             size_t nb, uint32_t* out) {
  size_t i = 0, j = 0, k = 0;
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

constexpr Kernels kScalarKernels = {
    UnpackBlockScalar,
    IntersectSortedScalar,
};

// ---- CPU feature detection --------------------------------------------------

bool CpuSupports(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kSse:
      return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("popcnt");
    case Isa::kAvx2:
      return __builtin_cpu_supports("avx2");
#endif
#if defined(__aarch64__)
    case Isa::kNeon:
      return true;  // NEON is baseline on aarch64
#endif
    default:
      return false;
  }
}

// ---- Resolution -------------------------------------------------------------

std::atomic<const Kernels*> g_active{nullptr};
std::atomic<int> g_active_isa{-1};
std::once_flag g_resolve_once;

Isa BestAvailable() {
  for (Isa isa : {Isa::kAvx2, Isa::kSse, Isa::kNeon}) {
    if (KernelsFor(isa) != nullptr) return isa;
  }
  return Isa::kScalar;
}

void ResolveOnce() {
  std::call_once(g_resolve_once, [] {
    Isa chosen = BestAvailable();
    const char* env = std::getenv("KOKO_SIMD");
    if (env != nullptr && *env != '\0') {
      const std::string want(env);
      Isa requested;
      bool known = true;
      if (want == "scalar") {
        requested = Isa::kScalar;
      } else if (want == "sse") {
        requested = Isa::kSse;
      } else if (want == "avx2") {
        requested = Isa::kAvx2;
      } else if (want == "neon") {
        requested = Isa::kNeon;
      } else {
        known = false;
        requested = chosen;
        KOKO_DLOG(Warning) << "KOKO_SIMD=" << want
                           << " not recognized (scalar|sse|avx2|neon); using "
                           << IsaName(chosen);
      }
      if (known) {
        if (KernelsFor(requested) != nullptr) {
          chosen = requested;
        } else {
          KOKO_DLOG(Warning) << "KOKO_SIMD=" << want
                             << " unavailable on this CPU/build; using "
                             << IsaName(chosen);
        }
      }
    }
    g_active_isa.store(static_cast<int>(chosen), std::memory_order_relaxed);
    g_active.store(KernelsFor(chosen), std::memory_order_release);
    KOKO_DLOG(Info) << "simd: posting kernels using isa=" << IsaName(chosen)
                    << (env != nullptr ? " (KOKO_SIMD set)" : "");
  });
}

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse:
      return "sse";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

const Kernels* KernelsFor(Isa isa) {
  if (!CpuSupports(isa)) return nullptr;
  switch (isa) {
    case Isa::kScalar:
      return &kScalarKernels;
    case Isa::kSse:
      return GetSseKernels();
    case Isa::kAvx2:
      return GetAvx2Kernels();
    case Isa::kNeon:
      return GetNeonKernels();
  }
  return nullptr;
}

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kScalar, Isa::kSse, Isa::kAvx2, Isa::kNeon}) {
    if (KernelsFor(isa) != nullptr) out.push_back(isa);
  }
  return out;
}

Isa ActiveIsa() {
  ResolveOnce();
  return static_cast<Isa>(g_active_isa.load(std::memory_order_relaxed));
}

const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

const Kernels& ActiveKernels() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    ResolveOnce();
    k = g_active.load(std::memory_order_acquire);
  }
  return *k;
}

void SetActiveIsa(Isa isa) {
  const Kernels* k = KernelsFor(isa);
  KOKO_CHECK(k != nullptr);
  ResolveOnce();  // keep the one-time log/env resolution first
  g_active_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
  g_active.store(k, std::memory_order_release);
}

}  // namespace simd
}  // namespace koko
