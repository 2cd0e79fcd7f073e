#ifndef KOKO_BASELINE_KOKO_ADAPTER_H_
#define KOKO_BASELINE_KOKO_ADAPTER_H_

#include <memory>

#include "baseline/tree_index.h"
#include "index/path_lookup.h"
#include "index/sharded_index.h"

namespace koko {

/// \brief KOKO's multi-index behind the TreeIndex interface (for the §6.2
/// head-to-head index comparisons).
///
/// Each path runs through the decomposed DPLI lookup (hierarchy indices +
/// word index, Algorithm 1); candidates are the intersection of the
/// per-path sentence-id sets. Each shard is a complete KokoIndex over a
/// contiguous global-sid range, so the lookup and the intersection both run
/// shard-locally and the shard results concatenate in shard order into the
/// globally sorted candidate list — the same distribution identity the
/// engine's per-shard DPLI relies on. Candidates are element-for-element
/// identical for every shard count.
class KokoTreeIndex : public TreeIndex {
 public:
  static std::unique_ptr<KokoTreeIndex> Build(const AnnotatedCorpus& corpus,
                                              size_t num_shards);

  /// Wraps an already built index (does not take ownership).
  explicit KokoTreeIndex(const ShardedKokoIndex* index) : index_(index) {}

  std::string_view name() const override { return "KOKO"; }
  Result<std::vector<uint32_t>> CandidateSentences(
      const std::vector<PathQuery>& paths) const override;
  size_t MemoryUsage() const override { return index_->MemoryUsage(); }

  const ShardedKokoIndex& index() const { return *index_; }

 private:
  std::unique_ptr<ShardedKokoIndex> owned_;
  const ShardedKokoIndex* index_ = nullptr;
};

}  // namespace koko

#endif  // KOKO_BASELINE_KOKO_ADAPTER_H_
