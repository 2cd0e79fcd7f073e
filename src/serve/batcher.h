#ifndef KOKO_SERVE_BATCHER_H_
#define KOKO_SERVE_BATCHER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>

#include "koko/engine.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace koko {

/// \brief Cross-request batch admission: concurrently-arriving requests
/// with equal execution fingerprints share one engine execution.
///
/// A production front end sees bursts of identical queries (dashboards,
/// retried clients, fan-out from one upstream). Executing each copy pays
/// the full DPLI + plan + score pipeline again for byte-identical rows.
/// BatchExecutor coalesces them: the first arrival of a fingerprint becomes
/// the *leader* and executes normally (through the service's admission
/// queue); every request with the same fingerprint that arrives while the
/// leader is still executing becomes a *follower* — it blocks until the
/// leader finishes and then shares the leader's result (a shared_ptr, no
/// row copies), never touching admission or the engine. When the leader
/// completes, the group dissolves: the next arrival of that fingerprint
/// starts a fresh execution (caches make it cheap, and results must track
/// post-completion index/config changes).
///
/// **Parity contract.** Followers receive the leader's rows verbatim, so
/// batched results are trivially byte-identical to what the leader saw —
/// the contract therefore hinges on the fingerprint: two requests may only
/// share a fingerprint when their executions would be byte-identical.
/// `RequestFingerprint` hashes the request's query text byte for byte
/// together with every execution-relevant option (the row cap).
/// It hashes no printed form of the parsed query: a printout may round
/// numbers, so two texts that execute differently could print alike. The
/// row cap in particular must be part of the key: a capped run truncates
/// the *pending* pre-filter row stream, so its rows are not in general a
/// prefix of the uncapped rows (see docs/WORKLOADS.md) — coalescing a
/// capped request into an uncapped execution would change its bytes.
/// tests/net_fuzz_test.cpp asserts the property over randomized concurrent
/// schedules with duplicated fingerprints.
///
/// Thread-safety: all methods may be called from any number of threads.
class BatchExecutor {
 public:
  struct Stats {
    uint64_t leaders = 0;    ///< Executions actually run.
    uint64_t followers = 0;  ///< Requests served from another's execution.
    uint64_t peak_group = 0;  ///< Largest group (leader + followers).
  };

  using ExecFn = std::function<Result<QueryResult>()>;

  struct Outcome {
    /// The group's shared result (never null). Errors coalesce too: a
    /// follower of a rejected leader sees the same Unavailable.
    std::shared_ptr<const Result<QueryResult>> result;
    bool follower = false;
  };

  /// Joins (or creates) the group for `fingerprint`. The leader invokes
  /// `exec` outside any executor lock; followers block until the leader's
  /// result is published.
  Outcome Run(uint64_t fingerprint, const ExecFn& exec);

  Stats stats() const KOKO_EXCLUDES(mu_);

 private:
  /// In-flight execution group. All members are accessed only while
  /// holding the executor's mu_ (the group never outlives the map entry
  /// except via the shared_ptr held by waiters already past the lookup).
  struct Group {
    std::shared_ptr<const Result<QueryResult>> result;  // set once, at done
    bool done = false;
    uint64_t members = 1;  // leader + joined followers
  };

  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<uint64_t, std::shared_ptr<Group>> groups_
      KOKO_GUARDED_BY(mu_);
  uint64_t leaders_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t followers_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t peak_group_ KOKO_GUARDED_BY(mu_) = 0;
};

/// Execution fingerprint of one wire request: the bytes of its query text
/// combined with every option that can change the result bytes. `max_rows`
/// 0 means unlimited.
uint64_t RequestFingerprint(std::string_view query_text, uint64_t max_rows);

}  // namespace koko

#endif  // KOKO_SERVE_BATCHER_H_
