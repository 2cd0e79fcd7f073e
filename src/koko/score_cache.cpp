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

void ScoreCache::Clear() {
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
  return stats;
}

}  // namespace koko
