#include "baseline/koko_adapter.h"

#include <algorithm>
#include <unordered_set>

#include "util/timer.h"

namespace koko {

namespace {

/// Per-path DPLI lookup + cross-path intersection over one shard.
Result<std::vector<uint32_t>> CandidatesFromIndex(
    const KokoIndex& index, const std::vector<PathQuery>& paths) {
  std::unordered_set<uint32_t> survivors;
  bool first = true;
  for (const PathQuery& path : paths) {
    PathLookupResult result = KokoPathLookup(index, path);
    if (result.unconstrained) continue;
    std::unordered_set<uint32_t> sids;
    for (const Quintuple& q : result.postings) sids.insert(q.sid);
    if (first) {
      survivors = std::move(sids);
      first = false;
    } else {
      std::unordered_set<uint32_t> merged;
      for (uint32_t sid : survivors) {
        if (sids.count(sid) > 0) merged.insert(sid);
      }
      survivors = std::move(merged);
    }
    if (survivors.empty()) break;
  }
  if (first) {
    return Status::InvalidArgument("KOKO: all-wildcard pattern prunes nothing");
  }
  std::vector<uint32_t> out(survivors.begin(), survivors.end());
  std::sort(out.begin(), out.end());
  return out;
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
