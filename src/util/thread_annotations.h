#ifndef KOKO_UTIL_THREAD_ANNOTATIONS_H_
#define KOKO_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

/// \file Clang thread-safety (capability) analysis for the engine's
/// concurrency invariants.
///
/// Concurrent serving shares state across queries — lock-striped
/// ScoreCache, mutexed PlanCache, FIFO AdmissionQueue — and a TSan run
/// checks a lock-discipline invariant only when it happens to exercise the
/// right interleaving. These macros let the
/// compiler prove the discipline statically on every build: each
/// mutex-protected member is declared `KOKO_GUARDED_BY(mu_)`, each function
/// that expects a held lock `KOKO_REQUIRES(mu_)`, and a clang build with
/// `-Wthread-safety -Werror=thread-safety` (CMake turns this on
/// automatically for clang; CI's static-analysis job gates on it) rejects
/// any access that cannot be shown to hold the right capability.
///
/// Under GCC (or any compiler without the capability attributes) every
/// macro expands to nothing and `Mutex`/`MutexLock`/`CondVar` are
/// zero-overhead wrappers over their std counterparts, so the annotated
/// code is portable and costs nothing where it cannot be checked.
///
/// The analysis only follows locks it can name, so the repo uses the
/// annotated wrappers below instead of raw `std::mutex` — enforced by
/// `tools/lint_invariants.py` (raw-mutex rule). How to add a new guarded
/// member is documented in docs/STATIC_ANALYSIS.md.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define KOKO_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef KOKO_THREAD_ANNOTATION
#define KOKO_THREAD_ANNOTATION(x)  // not clang: annotations compile away
#endif

/// Marks a type as a capability ("mutex") the analysis can track.
#define KOKO_CAPABILITY(x) KOKO_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define KOKO_SCOPED_CAPABILITY KOKO_THREAD_ANNOTATION(scoped_lockable)

/// Data members: reads and writes require holding `x`.
#define KOKO_GUARDED_BY(x) KOKO_THREAD_ANNOTATION(guarded_by(x))

/// Pointer members: the pointed-to data requires holding `x`.
#define KOKO_PT_GUARDED_BY(x) KOKO_THREAD_ANNOTATION(pt_guarded_by(x))

/// Functions: the caller must hold the listed capabilities.
#define KOKO_REQUIRES(...) \
  KOKO_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Functions: acquire / release the listed capabilities.
#define KOKO_ACQUIRE(...) \
  KOKO_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define KOKO_RELEASE(...) \
  KOKO_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Functions: must be called *without* the listed capabilities held
/// (deadlock prevention for self-locking public APIs).
#define KOKO_EXCLUDES(...) KOKO_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Escape hatch — every use must carry a comment justifying why the
/// analysis cannot see the invariant (lint_invariants.py counts these).
#define KOKO_NO_THREAD_SAFETY_ANALYSIS \
  KOKO_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace koko {

class CondVar;

/// \brief Annotated mutex: `std::mutex` wearing the capability attribute.
///
/// Exactly the std::mutex API surface the repo uses, but visible to the
/// thread-safety analysis. Prefer `MutexLock` over calling Lock/Unlock
/// directly; the RAII form is what the analysis reasons about best.
class KOKO_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() KOKO_ACQUIRE() { mu_.lock(); }
  void Unlock() KOKO_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock for `Mutex` (the annotated `std::lock_guard`).
class KOKO_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) KOKO_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() KOKO_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable over `Mutex`.
///
/// `Wait` takes the (held) Mutex explicitly so the analysis can check the
/// caller actually holds it; the lock is reacquired before Wait returns,
/// exactly like `std::condition_variable::wait`. There is deliberately no
/// predicate overload: the analysis cannot see into a predicate lambda, so
/// callers write the standard loop themselves —
///
///     MutexLock lock(mu_);
///     while (!ready_) cv_.Wait(mu_);   // ready_ is KOKO_GUARDED_BY(mu_)
///
/// which keeps every guarded read inside an analyzable scope.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks, reacquires `mu` before returning.
  /// May wake spuriously — always call in a predicate loop.
  void Wait(Mutex& mu) KOKO_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's MutexLock keeps ownership
  }

  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace koko

#endif  // KOKO_UTIL_THREAD_ANNOTATIONS_H_
