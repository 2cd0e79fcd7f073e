#ifndef KOKO_KOKO_SCORE_CACHE_H_
#define KOKO_KOKO_SCORE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace koko {

/// \brief The verdicts of one set of value filters over one corpus.
///
/// Entry `id` belongs to the value whose exact text the engine interned as
/// `id` (see Engine): its verdict and, once it passed, its score under each
/// value-only satisfying clause of the set. A verdict is a pure function of
/// the value's text and the filter set, so entries are atomic and lock
/// free: queries sharing a table read and store them concurrently, and two
/// queries racing on one value store the same verdict and scores.
class VerdictTable {
 public:
  enum class Verdict : uint8_t { kUndecided = 0, kPass, kReject };

  VerdictTable(size_t num_ids, size_t num_scores);

  size_t num_ids() const { return num_ids_; }
  size_t num_scores() const { return num_scores_; }

  Verdict verdict(uint32_t id) const {
    return static_cast<Verdict>(verdicts_[id].load(std::memory_order_acquire));
  }
  /// Clause score `k` of a value whose verdict is kPass.
  double score(uint32_t id, size_t k) const {
    return scores_[id * num_scores_ + k].load(std::memory_order_relaxed);
  }
  /// Stores `id`'s scores (the leading clauses a decision computed; all of
  /// them when it passed), then its verdict.
  void Store(uint32_t id, bool pass, std::span<const double> scores);

 private:
  size_t num_ids_;
  size_t num_scores_;
  std::unique_ptr<std::atomic<uint8_t>[]> verdicts_;
  std::unique_ptr<std::atomic<double>[]> scores_;
};

/// \brief Persistent, sharded (doc, clause, value) -> score cache for the
/// aggregate phase (§4.4), plus the verdict tables of value filters.
///
/// The engine's satisfying/excluding evaluation repeatedly scores the same
/// (document, clause, candidate value) triple — within one query when many
/// rows share a value, and *across* queries when a workload repeats (the
/// heavy-traffic serving case). A ScoreCache outlives individual queries:
/// hand one to `EngineOptions::score_cache` (QueryService does this for
/// every admitted query) and repeated workloads hit warm aggregate scores
/// instead of re-running descriptor matching over whole documents.
///
/// Value-only clauses and excluding conditions (CompiledQuery::
/// value_filters) read no document. For an entity or node variable the
/// engine keeps their verdicts in a `VerdictTable` indexed by value id and
/// keyed by the variable's filter set (`Aggregator::FilterSetKey`), which
/// `Verdicts` hands out: every query with the same filter set over the same
/// corpus shares it, so a warm query decides no value again. The tables sit
/// beside the doc-keyed entries and never count as their hits or misses.
///
/// The doc-keyed cache is sharded into `num_shards` independently locked
/// stripes keyed by document id, so concurrent queries scoring different
/// documents never contend.
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
    /// Verdict tables held (ScoreCache::Verdicts).
    uint64_t verdict_tables = 0;
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

  /// The verdict table of filter set `key` over `num_ids` value ids with
  /// `num_scores` clause scores each, made empty on first request. Shared:
  /// a query keeps its table alive, so a concurrent Clear() only drops the
  /// cache's reference.
  std::shared_ptr<VerdictTable> Verdicts(uint64_t key, size_t num_ids,
                                         size_t num_scores);

  /// Drops everything, verdict tables included, and resets hit/miss
  /// counters.
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
  mutable Mutex verdicts_mu_;
  std::unordered_map<uint64_t, std::shared_ptr<VerdictTable>> verdicts_
      KOKO_GUARDED_BY(verdicts_mu_);
};

}  // namespace koko

#endif  // KOKO_KOKO_SCORE_CACHE_H_
