#include "koko/score_cache.h"

#include "util/hash.h"

namespace koko {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

VerdictTable::VerdictTable(size_t num_ids, size_t num_scores)
    : num_ids_(num_ids),
      num_scores_(num_scores),
      verdicts_(std::make_unique<std::atomic<uint8_t>[]>(num_ids)),
      scores_(std::make_unique<std::atomic<double>[]>(num_ids * num_scores)) {}

void VerdictTable::Store(uint32_t id, bool pass, std::span<const double> scores) {
  for (size_t k = 0; k < scores.size(); ++k) {
    scores_[id * num_scores_ + k].store(scores[k], std::memory_order_relaxed);
  }
  verdicts_[id].store(
      static_cast<uint8_t>(pass ? Verdict::kPass : Verdict::kReject),
      std::memory_order_release);
}

ScoreCache::ScoreCache(const Options& options) {
  const size_t n = RoundUpPow2(options.num_shards == 0 ? 1 : options.num_shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_mask_ = n - 1;
}

size_t ScoreCache::KeyHash::operator()(const KeyView& k) const {
  uint64_t h = HashCombine(k.clause_key, Mix64(k.doc));
  return static_cast<size_t>(HashCombine(h, Fnv1a64(k.value)));
}

ScoreCache::Shard& ScoreCache::ShardOf(uint32_t doc) const {
  return *shards_[static_cast<size_t>(Mix64(doc)) & shard_mask_];
}

std::optional<double> ScoreCache::Lookup(uint64_t clause_key, uint32_t doc,
                                         std::string_view value) const {
  Shard& shard = ShardOf(doc);
  MutexLock lock(shard.mu);
  auto it = shard.map.find(KeyView{clause_key, doc, value});
  if (it == shard.map.end()) {
    ++shard.misses;
    return std::nullopt;
  }
  ++shard.hits;
  return it->second;
}

void ScoreCache::Insert(uint64_t clause_key, uint32_t doc,
                        std::string_view value, double score) {
  Shard& shard = ShardOf(doc);
  MutexLock lock(shard.mu);
  shard.map.emplace(Key{clause_key, doc, std::string(value)}, score);
}

std::shared_ptr<VerdictTable> ScoreCache::Verdicts(uint64_t key,
                                                   size_t num_ids,
                                                   size_t num_scores) {
  MutexLock lock(verdicts_mu_);
  std::shared_ptr<VerdictTable>& table = verdicts_[key];
  if (table == nullptr) {
    table = std::make_shared<VerdictTable>(num_ids, num_scores);
  } else if (table->num_ids() != num_ids || table->num_scores() != num_scores) {
    // A cache shared across corpora (which the class forbids) or a key
    // collision: serve this query from a table of its own rather than
    // index past the shared one.
    return std::make_shared<VerdictTable>(num_ids, num_scores);
  }
  return table;
}

void ScoreCache::Clear() {
  {
    MutexLock lock(verdicts_mu_);
    verdicts_.clear();
  }
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->map.clear();
    shard->hits = 0;
    shard->misses = 0;
  }
}

size_t ScoreCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

ScoreCache::Stats ScoreCache::stats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.entries += shard->map.size();
  }
  MutexLock lock(verdicts_mu_);
  stats.verdict_tables = verdicts_.size();
  return stats;
}

}  // namespace koko
