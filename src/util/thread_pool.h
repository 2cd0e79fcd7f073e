#ifndef KOKO_UTIL_THREAD_POOL_H_
#define KOKO_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace koko {

/// \brief Fixed-size thread pool with a task queue and fork/join sections.
///
/// Two layers of API:
///
///  * `Submit(task)` — enqueue one fire-and-forget task (FIFO). The serving
///    layer (QueryService::Submit) uses this for whole-query execution.
///  * `ParallelFor(n, fn)` / `Dispatch(fn)` — a fork/join section: `fn(slot)`
///    runs exactly once for every slot in `[0, n)` and the call returns when
///    all slots have finished (parallel shard build and load use it).
///    **Safe to call from any number of threads concurrently**: every call
///    owns its own job state. The calling thread participates
///    in its own section, so a section always completes even when every
///    worker is busy with other sections or with the caller's own enqueued
///    query tasks — which also makes it safe to open a section from *inside*
///    a Submit()-ed task without deadlock.
///
/// Deliberately work-stealing-free: fork/join callers distribute work
/// themselves (typically via an atomic cursor over a pre-ordered task list),
/// which keeps per-slot output buffers append-only and merges deterministic.
/// Slot ids are stable task indices, not thread identities; results indexed
/// by slot are byte-identical regardless of which thread ran which slot.
///
/// Lock discipline is compiler-checked: `queue_`/`shutdown_` are
/// KOKO_GUARDED_BY(mu_) and a clang `-Werror=thread-safety` build rejects
/// any unlocked access (see src/util/thread_annotations.h).
class ThreadPool {
 public:
  /// Spawns `num_workers` threads (at least 1).
  explicit ThreadPool(size_t num_workers)
      : num_workers_(num_workers == 0 ? 1 : num_workers) {
    workers_.reserve(num_workers_);
    for (size_t w = 0; w < num_workers_; ++w) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  /// Drains the queue (remaining tasks run, on workers) and joins. The
  /// caller must ensure no new Submit/ParallelFor races with destruction.
  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    wake_.NotifyAll();
    for (std::thread& t : workers_) t.join();
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return num_workers_; }

  /// Enqueues one task. Thread-safe.
  void Submit(std::function<void()> task) KOKO_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(task));
    }
    wake_.NotifyOne();
  }

  /// Fork/join section: runs `fn(slot)` exactly once for each slot in
  /// `[0, num_slots)` and blocks until every slot has returned. The calling
  /// thread executes slots alongside the workers. Thread-safe and
  /// re-entrant; `fn` must tolerate up to `min(num_slots, num_workers + 1)`
  /// concurrent invocations (each with a distinct slot).
  void ParallelFor(size_t num_slots, const std::function<void(size_t)>& fn)
      KOKO_EXCLUDES(mu_) {
    if (num_slots == 0) return;
    if (num_slots == 1) {
      fn(0);
      return;
    }
    auto job = std::make_shared<Job>(num_slots, &fn);
    // Enough helpers that every idle worker can join, minus the caller's
    // own seat. Helpers that arrive after the section drained are no-ops.
    const size_t helpers = std::min(num_slots - 1, num_workers_);
    {
      MutexLock lock(mu_);
      for (size_t i = 0; i < helpers; ++i) {
        queue_.push_back([job] { RunSlots(*job); });
      }
    }
    wake_.NotifyAll();
    RunSlots(*job);
    MutexLock lock(job->mu);
    while (job->completed != job->num_slots) job->done.Wait(job->mu);
  }

  /// Legacy fork/join shape: one slot per worker. `fn(slot)` runs once for
  /// every slot in `[0, num_workers())`; see ParallelFor for the contract.
  void Dispatch(const std::function<void(size_t)>& fn) {
    ParallelFor(num_workers_, fn);
  }

 private:
  // One fork/join section. Helpers hold the state alive via shared_ptr;
  // `fn` is only dereferenced for claimed slots, all of which finish before
  // ParallelFor (and therefore the caller's `fn`) goes away.
  struct Job {
    Job(size_t n, const std::function<void(size_t)>* f) : num_slots(n), fn(f) {}
    const size_t num_slots;
    const std::function<void(size_t)>* const fn;
    std::atomic<size_t> next_slot{0};
    Mutex mu;
    CondVar done;
    size_t completed KOKO_GUARDED_BY(mu) = 0;
  };

  static void RunSlots(Job& job) {
    size_t ran = 0;
    for (;;) {
      const size_t slot = job.next_slot.fetch_add(1, std::memory_order_relaxed);
      if (slot >= job.num_slots) break;
      (*job.fn)(slot);
      ++ran;
    }
    if (ran == 0) return;
    MutexLock lock(job.mu);
    job.completed += ran;
    if (job.completed == job.num_slots) job.done.NotifyAll();
  }

  void WorkerLoop() KOKO_EXCLUDES(mu_) {
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!shutdown_ && queue_.empty()) wake_.Wait(mu_);
        if (queue_.empty()) return;  // shutdown with a drained queue
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  const size_t num_workers_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar wake_;
  std::deque<std::function<void()>> queue_ KOKO_GUARDED_BY(mu_);
  bool shutdown_ KOKO_GUARDED_BY(mu_) = false;
};

}  // namespace koko

#endif  // KOKO_UTIL_THREAD_POOL_H_
