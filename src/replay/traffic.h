#ifndef KOKO_REPLAY_TRAFFIC_H_
#define KOKO_REPLAY_TRAFFIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "replay/workloads.h"
#include "serve/query_service.h"

namespace koko {
namespace net {
class KokoServer;
}  // namespace net

namespace replay {

/// One workload class wired to the service that will execute its queries.
/// The service owns the caches whose warm-up the phase comparison measures;
/// one service per class keeps the per-class cache hit rates honest (the
/// caches must never be shared across corpora anyway).
struct ReplayTarget {
  const Workload* workload = nullptr;
  QueryService* service = nullptr;
  /// A running server over `service`. Set, the target is replayed over the
  /// wire: each worker holds one KokoClient connection to it and sends the
  /// query text. Null, each query calls `service->Run` in process.
  const net::KokoServer* server = nullptr;
  /// Per-query expected row digests (index-aligned with workload->queries).
  /// Empty disables parity checking; otherwise every replayed query's rows
  /// are digested and mismatches are counted per class — the in-flight form
  /// of the golden-row regression net.
  std::vector<uint64_t> expected_digests;
};

/// How queries arrive.
enum class ArrivalProcess {
  /// `clients` workers each run the next scheduled query as soon as their
  /// previous one returns — measures capacity (latency excludes queueing
  /// by construction).
  kClosed,
  /// Queries arrive at Poisson times with rate `open_rate_qps`, regardless
  /// of completions; latency is measured from the *scheduled* arrival, so
  /// a backed-up service shows queueing delay instead of the coordinated
  /// omission a closed loop hides.
  kOpen,
};

struct TrafficOptions {
  ArrivalProcess arrival = ArrivalProcess::kClosed;
  /// Concurrent replay workers (closed loop: also the offered concurrency).
  size_t clients = 4;
  /// Queries per phase, mixed across every target.
  size_t queries = 96;
  /// kOpen only: mean arrival rate of the Poisson process.
  double open_rate_qps = 200.0;
  /// Schedule seed: which class/query each slot draws and the arrival
  /// gaps. One seed -> one schedule, replayed identically in both phases;
  /// the arrival process and the transport change only how the slots are
  /// issued, never which slots there are.
  uint64_t seed = 1;
};

struct LatencyStats {
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;
};

/// Aggregated outcome of one workload class within one phase.
struct ClassReport {
  std::string name;
  size_t queries = 0;
  size_t rows = 0;
  size_t errors = 0;
  size_t digest_mismatches = 0;
  LatencyStats latency;
  /// Early-termination counters summed over the class's queries.
  size_t early_terminated = 0;
  uint64_t scanned_candidates = 0;
  uint64_t candidate_sentences = 0;
  /// Queries that surfaced a plan, and their path atoms that ran with an
  /// accumulator as filter (every executed path atom after the first),
  /// summed over shard 0's plan per query; zero when the planner was off,
  /// a query bypassed the index, or the target was replayed over the wire
  /// (a response carries no plan).
  size_t planned_queries = 0;
  uint64_t filtered_paths = 0;
  /// Service cache deltas over this phase (end minus start counters).
  uint64_t score_cache_hits = 0;
  uint64_t score_cache_misses = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
};

struct PhaseReport {
  std::string phase;  ///< "cold" or "warm".
  double wall_seconds = 0;
  std::vector<ClassReport> classes;  ///< Index-aligned with the targets.
};

struct ReplayReport {
  PhaseReport cold;
  PhaseReport warm;

  size_t TotalErrors() const {
    size_t n = 0;
    for (const PhaseReport* phase : {&cold, &warm}) {
      for (const ClassReport& c : phase->classes) {
        n += c.errors + c.digest_mismatches;
      }
    }
    return n;
  }
};

/// \brief Replays one deterministic mixed-class schedule twice.
///
/// A schedule of `options.queries` slots is drawn from `options.seed`
/// (target, query and arrival gap per slot; closed loop ignores the gaps)
/// and executed twice against the same services, in process or over the
/// wire as each target says: the first pass ("cold") starts from
/// whatever cache state the services were constructed with, the second
/// ("warm") repeats the identical schedule against the caches the first
/// pass populated — the difference isolates what the score/plan caches buy
/// on a repeating workload. Workers write into pre-sized per-slot record
/// slots claimed off one atomic cursor, so the replayer itself adds no
/// locking around the services under test. Determinism: the schedule (and
/// therefore every query's rows) is a pure function of the options; only
/// the measured latencies vary run to run.
ReplayReport ReplayTraffic(const std::vector<ReplayTarget>& targets,
                           const TrafficOptions& options);

}  // namespace replay
}  // namespace koko

#endif  // KOKO_REPLAY_TRAFFIC_H_
