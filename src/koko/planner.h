#ifndef KOKO_KOKO_PLANNER_H_
#define KOKO_KOKO_PLANNER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/koko_index.h"
#include "index/path.h"
#include "index/sid_ops.h"
#include "koko/compile.h"
#include "util/thread_annotations.h"

namespace koko {

/// Planner settings. Empty: a plan holds no strategy choice, because every
/// path atom filters with the running candidate set (see
/// docs/QUERY_PLANNING.md). The type stays in the BuildQueryPlan and
/// GetOrBuildPlan signatures, which the engine and the benchmark harness
/// call with `PlannerOptions()`.
struct PlannerOptions {};

/// One prunable atom of a compiled query: a copy of what its sid list is
/// read from, annotated with the statistics the planner derived for it.
/// The atom holds its own content, so a cached plan runs correctly for
/// every query with the same fingerprint, whatever its variable layout.
struct PlannedAtom {
  enum class Kind : uint8_t { kPath, kEntity, kLiteral };
  Kind kind = Kind::kEntity;
  /// kPath: the dominant absolute path.
  PathQuery path;
  /// kEntity: the entity type; unset means any entity.
  std::optional<EntityType> etype;
  /// kLiteral: the literal's words, in order.
  std::vector<std::string> words;
  /// Estimated candidate sentences this atom prunes to. An upper bound
  /// for paths (EstimatePathSids) and multi-word literals (smallest word
  /// list); exact for entity atoms and single-word literals.
  uint64_t estimate = 0;
  bool exact = false;
  /// Human-readable atom description for EXPLAIN.
  std::string label;
};

/// A compiled execution plan for DPLI candidate collection against one
/// (shard) index: atoms in execution order (ascending estimated
/// selectivity, or compile order for the fixed-order plan), each annotated
/// with its statistics. Executing a plan (CollectPlannedCandidates) yields
/// the same candidate set in either order — plans change cost, not
/// results. A plan reads nothing of the query it was built from.
struct QueryPlan {
  /// False when the query has no prunable atom (the engine degrades to the
  /// full sid range, as without a planner).
  bool pruned = false;
  std::vector<PlannedAtom> atoms;
  /// Structure fingerprint of the prunable clauses (PlanFingerprint).
  uint64_t fingerprint = 0;
  /// Sentences in the planned-against (shard) index (for EXPLAIN).
  size_t index_sentences = 0;
};

/// Content fingerprint of a query's prunable atoms: the kind and content
/// of every atom a plan holds (each constrained dominant path, entity
/// restriction and literal), in compile order, hashed field by field
/// from the same atoms BuildQueryPlan keeps. Variable indices are not part
/// of it: two queries with equal fingerprints have equal atoms (up to a
/// 64-bit hash collision), so they share one plan against the same index,
/// which is what makes plans cacheable across queries.
uint64_t PlanFingerprint(const CompiledQuery& cq);

/// Builds a plan from per-list statistics (list lengths and trie-node
/// list lengths — no posting decoded): copies the prunable atoms, in the
/// same walk PlanFingerprint hashes, estimates each one's selectivity and,
/// when `order_by_cost`, orders the atoms by ascending estimate.
/// `order_by_cost = false` keeps compile order — the fixed-order plan the
/// engine runs with EngineOptions::use_planner off.
std::shared_ptr<const QueryPlan> BuildQueryPlan(const KokoIndex& index,
                                                const CompiledQuery& cq,
                                                const PlannerOptions& options,
                                                bool order_by_cost = true);

/// Candidate sids produced by executing `plan` against `index`. `pruned`
/// mirrors QueryPlan::pruned (false -> caller degrades to the full range).
struct PlannedCandidates {
  bool pruned = false;
  SidList sids;
  /// Accumulator size after each executed atom, in plan order — the actual
  /// EXPLAIN prints next to the atom's estimate. Shorter than the plan's
  /// atoms when an empty accumulator short-circuited the rest.
  std::vector<uint64_t> atom_sizes;
};

/// Executes a plan — the one DPLI executor: materialises atom views lazily
/// in plan order and intersects each into the accumulator, short-circuiting
/// on an empty accumulator — an empty early atom skips the remaining
/// (typically most expensive) lookups entirely. Every path atom after the
/// first filters with what the executor already has: it receives the
/// accumulator (a stored list decoded once) as its KokoPathSidLookup
/// filter, so its lookup only touches sentences still in the running
/// candidate set and its result is the next accumulator. The resulting sid
/// set does not depend on the plan's atom order. The executor reads only
/// the plan; the unnamed CompiledQuery parameter is kept for the
/// benchmark harness's call.
PlannedCandidates CollectPlannedCandidates(const KokoIndex& index,
                                           const CompiledQuery& /*cq*/,
                                           const QueryPlan& plan);

/// \brief Cross-query compiled-plan cache keyed by clause fingerprint —
/// the planner-side sibling of ScoreCache.
///
/// Plans are cheap to build (statistics reads only) but repeated workloads
/// rebuild the same plan per query per shard; a PlanCache shared through
/// `EngineOptions::plan_cache` (QueryService owns one) makes the repeat
/// cost one hash lookup. Keys must incorporate the target (shard) index's
/// identity — GetOrBuildPlan mixes the shard ordinal into the clause
/// fingerprint — and, like the score cache, a plan cache must never be
/// shared across different corpora; Clear() it when the index is rebuilt
/// or reloaded.
///
/// Thread-safe; plans are immutable once published (shared_ptr<const>),
/// so concurrent queries share them without copying.
class PlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
  };

  /// Cached plan for `key`, or nullptr on a miss.
  std::shared_ptr<const QueryPlan> Lookup(uint64_t key) const;

  /// Inserts (first writer wins; plans for one key are deterministic, so
  /// concurrent inserts are benign).
  void Insert(uint64_t key, std::shared_ptr<const QueryPlan> plan);

  /// Drops every plan and resets the hit/miss counters (call when the
  /// index changes — a stale plan would mis-cost, though never mis-answer).
  void Clear();

  size_t size() const;
  Stats stats() const;

 private:
  mutable Mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const QueryPlan>> plans_
      KOKO_GUARDED_BY(mu_);
  mutable uint64_t hits_ KOKO_GUARDED_BY(mu_) = 0;
  mutable uint64_t misses_ KOKO_GUARDED_BY(mu_) = 0;
};

/// Cache-aware plan fetch: looks up (fingerprint, salt) in
/// `cache` when non-null, building and inserting on a miss. `salt`
/// distinguishes plan targets sharing one cache — the engine passes the
/// shard ordinal, so per-shard statistics get per-shard plans.
std::shared_ptr<const QueryPlan> GetOrBuildPlan(const KokoIndex& index,
                                                const CompiledQuery& cq,
                                                const PlannerOptions& options,
                                                PlanCache* cache,
                                                uint64_t salt);

}  // namespace koko

#endif  // KOKO_KOKO_PLANNER_H_
