#ifndef KOKO_KOKO_SCORE_CACHE_H_
#define KOKO_KOKO_SCORE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace koko {

/// \brief Persistent, sharded (doc, clause, value) -> score cache for the
/// aggregate phase (§4.4).
///
/// The engine's satisfying/excluding evaluation repeatedly scores the same
/// (document, clause, candidate value) triple — within one query when many
/// rows share a value, and *across* queries when a workload repeats (the
/// heavy-traffic serving case). A ScoreCache outlives individual queries:
/// hand one to `EngineOptions::score_cache` (QueryService does this for
/// every admitted query) and repeated workloads hit warm aggregate scores
/// instead of re-running descriptor matching over whole documents.
/// Value-only clauses and excluding conditions (CompiledQuery::
/// value_filters) never reach it: they read no document, so the engine
/// decides each distinct value once per query in a memo of its own.
///
/// The cache is sharded into `num_shards` independently locked stripes
/// keyed by document id, so concurrent queries scoring different documents
/// never contend.
/// Each stripe counts its own hits and misses under its lock, so a probe
/// touches no state that other stripes' probes share.
/// Correctness: `Aggregator::Score` is a pure function of (document
/// content, value, clause, scoring configuration), so serving a hit is
/// byte-identical to recomputing — provided the clause key captures the
/// scoring configuration. The engine keys clauses by
/// `Aggregator::ClauseKey`, which covers the clause's content (not its
/// threshold, which is applied after scoring) and the descriptor/ontology
/// configuration, so one cache must only be shared across engines with
/// identical corpora. Do not reuse a cache after mutating or reloading the
/// corpus; call Clear() instead.
class ScoreCache {
 public:
  struct Options {
    /// Lock stripes (cache shards); rounded up to a power of two, min 1.
    /// Align with the index shard count for shard-affine serving.
    size_t num_shards = 16;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t entries = 0;
  };

  ScoreCache() : ScoreCache(Options{}) {}
  explicit ScoreCache(const Options& options);

  /// Cached score for (clause_key, doc, value), or nullopt on a miss. The
  /// probe copies no key.
  std::optional<double> Lookup(uint64_t clause_key, uint32_t doc,
                               std::string_view value) const;

  /// Inserts (first writer wins; concurrent inserts of the same key are
  /// benign because scores are deterministic).
  void Insert(uint64_t clause_key, uint32_t doc, std::string_view value,
              double score);

  /// Drops everything and resets hit/miss counters.
  void Clear();

  size_t num_shards() const { return shards_.size(); }
  size_t size() const;
  Stats stats() const;

 private:
  // Stored keys own their value; probes are KeyViews over the caller's
  // text, matched through the transparent hash and equality.
  struct KeyView {
    uint64_t clause_key;
    uint32_t doc;
    std::string_view value;
  };
  struct Key {
    uint64_t clause_key;
    uint32_t doc;
    std::string value;
    operator KeyView() const { return {clause_key, doc, value}; }
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyView& k) const;
  };
  struct KeyEqual {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const {
      return a.clause_key == b.clause_key && a.doc == b.doc &&
             a.value == b.value;
    }
  };
  struct Shard {
    mutable Mutex mu;
    std::unordered_map<Key, double, KeyHash, KeyEqual> map KOKO_GUARDED_BY(mu);
    mutable uint64_t hits KOKO_GUARDED_BY(mu) = 0;
    mutable uint64_t misses KOKO_GUARDED_BY(mu) = 0;
  };

  Shard& ShardOf(uint32_t doc) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;
};

}  // namespace koko

#endif  // KOKO_KOKO_SCORE_CACHE_H_
