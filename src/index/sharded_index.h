#ifndef KOKO_INDEX_SHARDED_INDEX_H_
#define KOKO_INDEX_SHARDED_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "index/koko_index.h"

namespace koko {

/// Where a load keeps an index file's bytes. Both modes take one path:
/// every section of the image is validated and then aliased in place —
/// nothing is copied, decoded or parsed into owned tables.
///
///  * `kCopy` — read the file into an owned heap buffer (the default).
///    MemoryUsage() counts the buffer.
///  * `kMap` — mmap the file read-only. The index's columns, row lists and
///    sid lists are page-cache-backed and shared across processes mapping
///    the same image. Where mmap fails, the load falls back to the kCopy
///    buffer.
enum class LoadMode { kCopy, kMap };

/// \brief K independent KokoIndex shards over contiguous sid ranges — the
/// one index type the engine serves and the one index file there is.
///
/// The corpus's global sentence numbering is partitioned into K contiguous
/// ranges; shard i is a complete KokoIndex built over [begin_i, end_i) whose
/// stored sids stay *global*. Because the ranges are disjoint and ascending,
/// the global answer to any lookup is the concatenation of the per-shard
/// answers in shard order — no re-sorting, no id translation — and any
/// per-shard sid computation (DPLI intersections in particular) composes
/// back losslessly: intersection distributes over a partition by sid range,
/// so ∩_atoms L_atom = ⊔_shards ∩_atoms L_atom|shard. Callers read the
/// shards directly (`shard(i)`). K = 1 is the paper's single multi-index.
///
/// Shards build and load in parallel on transient threads (the caller plus
/// up to K-1 more, joined before Build/Load return), so build and load time
/// scale with min(K, hardware threads). A query runs DPLI
/// shard by shard on its own thread (see Engine).
class ShardedKokoIndex {
 public:
  struct Options {
    /// Number of contiguous sid-range shards (>= 1). Sentences are split
    /// evenly: shard i covers [i*N/K, (i+1)*N/K).
    size_t num_shards = 1;
    /// Threads for the parallel shard build, the caller included; 0 = one
    /// per shard, up to the hardware's threads.
    size_t build_threads = 0;
    /// Explicit shard boundaries (ascending global sids, starting at 0 and
    /// ending at NumSentences()). Overrides num_shards when non-empty —
    /// lets callers align shards to document groups or test uneven splits.
    std::vector<uint32_t> boundaries;
  };

  struct ShardRange {
    uint32_t begin = 0;  // inclusive
    uint32_t end = 0;    // exclusive
  };

  static std::unique_ptr<ShardedKokoIndex> Build(const AnnotatedCorpus& corpus,
                                                 const Options& options);
  static std::unique_ptr<ShardedKokoIndex> Build(const AnnotatedCorpus& corpus,
                                                 size_t num_shards) {
    Options options;
    options.num_shards = num_shards;
    return Build(corpus, options);
  }

  size_t num_shards() const { return shards_.size(); }
  const KokoIndex& shard(size_t i) const { return *shards_[i]; }
  const ShardRange& shard_range(size_t i) const { return ranges_[i]; }

  // ---- Introspection / persistence ----------------------------------------

  /// Field-wise sum over shards; build_seconds is the wall time of the
  /// whole (parallel) build, not the sum of per-shard times.
  KokoIndex::Stats stats() const;
  size_t MemoryUsage() const;

  /// Heap bytes attributable to the shards' columnar sid projections
  /// (sum of KokoIndex::SidCacheMemoryUsage). After a kMap load this is
  /// ~0: the postings alias the file mapping instead of heap memory.
  size_t SidCacheMemoryUsage() const;

  /// True when every shard's posting payloads alias one shared file
  /// mapping (a kMap load whose mmap succeeded).
  bool mapped() const;

  /// One file: shard manifest (count + sid ranges + per-shard image byte
  /// lengths) followed by each shard's full KokoIndex image (block-
  /// compressed sid caches included). The byte extents let Load hand each
  /// shard's section to an independent reader.
  Status Save(const std::string& path) const;

  struct LoadOptions {
    /// Threads for the parallel shard load, the caller included; 0 = one
    /// per shard up to the hardware's threads (so a file cannot choose how
    /// many threads its load starts), 1 = serial on the caller.
    size_t num_threads = 0;
    /// Where the file's bytes live (see LoadMode): either way the file is
    /// read or mapped once and every shard aliases its postings in place
    /// in its extent (the image outlives the index via shared ownership).
    LoadMode mode = LoadMode::kCopy;
  };

  /// Loads the shards in parallel, each from its extent of the one image
  /// (manifest version 2 only). Rejects manifests with no shard or whose
  /// ranges do not partition [0, end) contiguously, and shards holding a
  /// sid list outside their range.
  static Result<std::unique_ptr<ShardedKokoIndex>> Load(const std::string& path) {
    return Load(path, LoadOptions());
  }
  static Result<std::unique_ptr<ShardedKokoIndex>> Load(
      const std::string& path, const LoadOptions& options);

 private:
  ShardedKokoIndex() = default;

  std::vector<std::unique_ptr<KokoIndex>> shards_;
  std::vector<ShardRange> ranges_;
  double build_seconds_ = 0;
};

}  // namespace koko

#endif  // KOKO_INDEX_SHARDED_INDEX_H_
