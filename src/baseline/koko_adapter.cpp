#include "baseline/koko_adapter.h"

#include <utility>

#include "util/timer.h"

namespace koko {

namespace {

/// DPLI over one shard, as the engine's executor runs its path atoms: each
/// constrained path's sid lookup is filtered with the running candidate
/// set, and its result is the next candidate set.
Result<std::vector<uint32_t>> CandidatesFromIndex(
    const KokoIndex& index, const std::vector<PathQuery>& paths) {
  SidList survivors;
  bool seeded = false;
  for (const PathQuery& path : paths) {
    PathSidLookupResult lookup =
        KokoPathSidLookup(index, path, seeded ? &survivors : nullptr);
    if (lookup.unconstrained) continue;
    survivors = std::move(lookup.sids);
    seeded = true;
    if (survivors.empty()) break;
  }
  if (!seeded) {
    return Status::InvalidArgument("KOKO: all-wildcard pattern prunes nothing");
  }
  return survivors.TakeIds();
}

}  // namespace

std::unique_ptr<KokoTreeIndex> KokoTreeIndex::Build(
    const AnnotatedCorpus& corpus, size_t num_shards) {
  WallTimer timer;
  auto owned = ShardedKokoIndex::Build(corpus, num_shards);
  auto adapter = std::make_unique<KokoTreeIndex>(owned.get());
  adapter->owned_ = std::move(owned);
  adapter->build_seconds_ = timer.ElapsedSeconds();
  return adapter;
}

Result<std::vector<uint32_t>> KokoTreeIndex::CandidateSentences(
    const std::vector<PathQuery>& paths) const {
  // Intersection distributes over the sid-range partition: shard-local
  // candidates concatenated in shard order equal the one-index answer
  // (ranges are disjoint and ascending, stored sids are global).
  std::vector<uint32_t> out;
  for (size_t s = 0; s < index_->num_shards(); ++s) {
    auto shard_candidates = CandidatesFromIndex(index_->shard(s), paths);
    if (!shard_candidates.ok()) return shard_candidates.status();
    out.insert(out.end(), shard_candidates->begin(), shard_candidates->end());
  }
  return out;
}

}  // namespace koko
