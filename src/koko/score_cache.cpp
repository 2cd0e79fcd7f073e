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

uint64_t ScoreCache::ClauseFingerprint(const SatisfyingClause& clause) {
  uint64_t h = Fnv1a64(clause.var);
  h = HashCombine(h, clause.conditions.size());
  for (const SatCondition& cond : clause.conditions) {
    h = HashCombine(h, static_cast<uint64_t>(cond.kind));
    h = HashCombine(h, Fnv1a64(cond.var));
    h = HashCombine(h, Fnv1a64(cond.text));
    uint64_t weight_bits;
    static_assert(sizeof(weight_bits) == sizeof(cond.weight));
    __builtin_memcpy(&weight_bits, &cond.weight, sizeof(weight_bits));
    h = HashCombine(h, weight_bits);
  }
  return Mix64(h);
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
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
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
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
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
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.entries = size();
  return stats;
}

}  // namespace koko
