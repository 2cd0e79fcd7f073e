#ifndef KOKO_SERVE_QUERY_SERVICE_H_
#define KOKO_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "koko/engine.h"
#include "koko/score_cache.h"
#include "util/thread_annotations.h"

namespace koko {

/// \brief FIFO admission control for concurrent query execution.
///
/// At most `max_inflight` callers hold admission at once; further callers
/// wait in ticket order (strict FIFO — no barging), and when `max_queue`
/// callers are already waiting, new arrivals are rejected immediately
/// (back-pressure instead of unbounded pile-up). `Shutdown()` drains the
/// queue for teardown: every blocked waiter wakes up rejected and every
/// later Enter() rejects immediately, while already-admitted callers finish
/// normally (their paired Exit() still runs). Separated from QueryService
/// so the admission semantics are unit-testable without timing-dependent
/// query execution.
///
/// Every counter is KOKO_GUARDED_BY(mu_) and read through `counters()`, one
/// coherent snapshot: reading them one lock acquisition at a time could
/// tear across concurrent admissions (e.g. observe a peak_inflight newer
/// than the admitted count it came from).
class AdmissionQueue {
 public:
  /// Coherent counter snapshot, taken under one lock acquisition.
  /// Invariants that hold for every snapshot (and that a torn multi-call
  /// read can violate): peak_inflight <= admitted, inflight <= max_inflight,
  /// peak_waiting <= admitted + rejected.
  struct Counters {
    size_t inflight = 0;
    size_t waiting = 0;
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    uint64_t peak_inflight = 0;
    uint64_t peak_waiting = 0;
  };

  AdmissionQueue(size_t max_inflight, size_t max_queue)
      : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
        max_queue_(max_queue) {}

  /// Blocks until admitted; returns false (rejection) when the caller
  /// would have to wait behind `max_queue` queued callers, or when the
  /// queue is (or becomes, while waiting) shut down. Every true return
  /// must be paired with Exit().
  bool Enter() KOKO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    if (shutdown_) {
      ++rejected_;
      return false;
    }
    const bool immediate = waiting_ == 0 && inflight_ < max_inflight_;
    if (!immediate && waiting_ >= max_queue_) {
      ++rejected_;
      return false;
    }
    const uint64_t ticket = next_ticket_++;
    ++waiting_;
    // peak_waiting counts callers that actually blocked; an uncontended
    // caller passes straight through.
    if (!immediate) {
      peak_waiting_ = std::max(peak_waiting_, static_cast<uint64_t>(waiting_));
    }
    while (!shutdown_ &&
           !(ticket == serve_ticket_ && inflight_ < max_inflight_)) {
      cv_.Wait(mu_);
    }
    --waiting_;
    ++serve_ticket_;
    if (shutdown_) {
      // Drained while waiting: hand the turn to the next ticket (every
      // waiter takes this path, so serve order no longer matters) and
      // report the caller rejected, never admitted.
      ++rejected_;
      cv_.NotifyAll();
      return false;
    }
    ++inflight_;
    ++admitted_;
    peak_inflight_ = std::max(peak_inflight_, static_cast<uint64_t>(inflight_));
    // The next ticket in line may be admittable too while inflight_ is
    // still below the bound.
    cv_.NotifyAll();
    return true;
  }

  void Exit() KOKO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    --inflight_;
    cv_.NotifyAll();
  }

  /// Rejects every current waiter and every future Enter(). Idempotent;
  /// safe to call concurrently with Enter/Exit from any thread. Admitted
  /// callers are unaffected — wait for counters().inflight to reach zero to
  /// drain.
  void Shutdown() KOKO_EXCLUDES(mu_) {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_.NotifyAll();
  }

  bool is_shutdown() const KOKO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return shutdown_;
  }

  Counters counters() const KOKO_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    Counters c;
    c.inflight = inflight_;
    c.waiting = waiting_;
    c.admitted = admitted_;
    c.rejected = rejected_;
    c.peak_inflight = peak_inflight_;
    c.peak_waiting = peak_waiting_;
    return c;
  }

 private:
  const size_t max_inflight_;
  const size_t max_queue_;
  mutable Mutex mu_;
  CondVar cv_;
  uint64_t next_ticket_ KOKO_GUARDED_BY(mu_) = 0;   ///< Next ticket out.
  uint64_t serve_ticket_ KOKO_GUARDED_BY(mu_) = 0;  ///< First in line.
  size_t inflight_ KOKO_GUARDED_BY(mu_) = 0;
  size_t waiting_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t admitted_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t peak_inflight_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t peak_waiting_ KOKO_GUARDED_BY(mu_) = 0;
  bool shutdown_ KOKO_GUARDED_BY(mu_) = false;
};

/// \brief Concurrent query serving over one shared engine (the server core).
///
/// The paper evaluates Koko one query at a time; heavy multi-user traffic
/// needs many concurrent queries over one shared index. QueryService turns
/// the batch engine into that server core:
///
///  * **Admission queue.** At most `max_inflight` queries execute at once;
///    further callers wait FIFO, and beyond `max_queue` waiters new calls
///    are rejected with `Unavailable` (back-pressure instead of pile-up).
///  * **One query, one thread.** Every admitted query runs start to finish
///    on its caller's thread; the service starts no thread of its own.
///    Throughput comes from many callers running queries at once, not from
///    splitting one across threads.
///  * **Persistent per-shard score caches.** One `ScoreCache` (lock-striped
///    into cache shards) survives across queries via
///    `EngineOptions::score_cache`, so repeated workloads hit warm
///    aggregate scores instead of re-scoring (doc, clause, value) triples.
///    It also keeps the verdict tables of value-only clauses and
///    conditions on entity and node variables, so a value is decided once
///    per service, not once per query.
///  * **Persistent plan cache.** One `PlanCache` survives across queries
///    via `EngineOptions::plan_cache`, so repeated query shapes reuse the
///    compiled clause plan (atom order + per-clause representations) per
///    shard instead of re-deriving it from index statistics. Both caches'
///    hit/miss counters surface in `Stats`.
///  * **Streaming.** The `Run(..., sink)` overloads deliver rows to the
///    caller's sink as extraction produces them (ascending-sid order),
///    and a finite `engine.max_rows` terminates the candidate scan early
///    once top-k is provably satisfied — under full admission-controlled
///    concurrency, with rows still byte-identical to the batch path.
///
/// **Determinism contract:** for any query, `Run` returns byte-identical
/// rows (docs, sids, values, scores) to a single-query `Engine::Execute`,
/// for every (index shard count, max_inflight, concurrent client count)
/// combination. Each query runs alone on its thread and score and plan
/// caching are value-preserving, so concurrency changes only scheduling,
/// never results.
///
/// Thread-safety: all public methods may be called from any number of
/// threads. The borrowed Engine must outlive the service and must not be
/// reconfigured (set_document_store / AddOntologySet) while queries run.
/// The engine's index may be a zero-copy (`LoadMode::kMap`) load: mapped
/// postings are immutable shared state held alive by the index itself, so
/// concurrent queries read them without synchronization and the service
/// needs no awareness of the load mode (see
/// query_service_test's ConcurrentClientsOverMappedIndexMatchSerial).
/// See examples/serve_queries.cpp for an end-to-end snippet, including
/// serving off an mmap-loaded index.
class QueryService {
 public:
  struct Options {
    /// Inert: queries run on their callers' threads, whatever this holds.
    /// Kept only so existing callers that set it still compile.
    size_t num_threads = 0;
    /// Queries executing at once; further callers wait FIFO. Min 1.
    size_t max_inflight = 4;
    /// Callers allowed to wait for admission; beyond this, Run fails fast
    /// with Unavailable. Default: unbounded.
    size_t max_queue = SIZE_MAX;
    /// Per-query execution defaults. The service sets `score_cache` and
    /// `plan_cache`, and a `Run` sink replaces `sink`; the rest (use_gsp,
    /// use_index, use_descriptors, use_planner, max_rows, early_terminate)
    /// apply to every query run through the service.
    EngineOptions engine;
  };

  struct Stats {
    uint64_t admitted = 0;   ///< Queries that entered execution.
    uint64_t completed = 0;  ///< Queries that finished (ok or error).
    uint64_t rejected = 0;   ///< Queries turned away (queue full).
    uint64_t peak_inflight = 0;
    uint64_t peak_waiting = 0;
    /// Cross-query cache effectiveness (cumulative since construction) —
    /// the figures BENCH_workloads.json records per replay class.
    ScoreCache::Stats score_cache;
    PlanCache::Stats plan_cache;
  };

  /// Per-request option overrides, applied on top of `Options::engine` for
  /// one Run call. This is the wire front end's hook (src/net/server.cpp):
  /// a network request carries its own row cap and planner toggle, while
  /// everything structural (caches, admission) stays service-owned. Unset
  /// fields inherit the service defaults.
  struct RunOverrides {
    std::optional<size_t> max_rows;
    std::optional<bool> use_planner;
  };

  /// `engine` is borrowed and must outlive the service. `index_shards` is
  /// only used to size the score cache's stripes (at least 16); pass the
  /// served index's `num_shards()`.
  QueryService(const Engine* engine, const Options& options,
               size_t index_shards = 0);

  /// Blocks for admission, executes on the calling thread, returns the
  /// query's result. Rejects with Unavailable when `max_queue` callers are
  /// already waiting.
  Result<QueryResult> Run(std::string_view query_text);
  Result<QueryResult> Run(const Query& query);

  /// Streaming variants: `sink` receives every result row as extraction
  /// produces it (ascending-sid order, invoked on the executing thread,
  /// before later candidates are evaluated), and the returned result still
  /// carries the full row set. With a finite `engine.max_rows` the
  /// candidate scan additionally terminates early once the row budget is
  /// provably satisfied. `sink` must stay alive until the call returns.
  Result<QueryResult> Run(std::string_view query_text, const RowSink& sink);
  Result<QueryResult> Run(const Query& query, const RowSink& sink);

  /// Overridden variant: same admission/execution path with `overrides`
  /// layered onto the service's engine options (a finite max_rows implies
  /// streaming early termination, matching EngineOptions' contract). Pass
  /// an empty RowSink for non-streaming callers.
  Result<QueryResult> Run(const Query& query, const RunOverrides& overrides,
                          const RowSink& sink);

  ScoreCache& score_cache() { return *score_cache_; }
  const ScoreCache& score_cache() const { return *score_cache_; }
  PlanCache& plan_cache() { return *plan_cache_; }
  const PlanCache& plan_cache() const { return *plan_cache_; }
  /// Exposed for load-shedding introspection and deterministic tests.
  AdmissionQueue& admission() { return admission_; }
  const AdmissionQueue& admission() const { return admission_; }

  Stats stats() const;

 private:
  const Engine* engine_;
  Options options_;
  std::unique_ptr<ScoreCache> score_cache_;
  std::unique_ptr<PlanCache> plan_cache_;
  AdmissionQueue admission_;
  std::atomic<uint64_t> completed_{0};
};

}  // namespace koko

#endif  // KOKO_SERVE_QUERY_SERVICE_H_
