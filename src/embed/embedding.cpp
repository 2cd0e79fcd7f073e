#include "embed/embedding.h"

#include <algorithm>
#include <cmath>

#include "util/hash.h"
#include "util/string_util.h"

namespace koko {

namespace {

struct ClusterDef {
  std::initializer_list<const char*> words;
};

// Built-in paraphrase clusters (the counter-fitted synonym structure the
// cafe queries rely on).
const std::initializer_list<ClusterDef> kClusters = {
    {{"serves", "sells", "offers", "pours", "serve", "sell", "offer"}},
    {{"served", "sold", "offered", "poured"}},
    {{"coffee", "espresso", "cappuccino", "macchiato", "latte", "brew"}},
    {{"employs", "hires", "recruits", "employ", "hire"}},
    {{"employed", "hired", "recruited"}},
    {{"barista", "baristas"}},
    {{"delicious", "tasty", "scrumptious", "yummy", "flavorful"}},
    {{"great", "excellent", "amazing", "wonderful", "fantastic"}},
    {{"is", "was", "are", "were", "be"}},
    {{"born"}},
    {{"menu", "list"}},
    {{"shop", "store"}},
    {{"city", "cities", "town"}},
    {{"country", "countries", "nation"}},
    {{"soccer", "football"}},
    {{"host", "hosts", "hosted"}},
    {{"went", "go", "goes", "gone"}},
};

struct RelatedDef {
  const char* concept_word;
  std::initializer_list<const char*> instances;
};

const std::initializer_list<RelatedDef> kRelated = {
    {"city",
     {"tokyo", "beijing", "paris", "london", "portland", "seattle", "austin",
      "denver", "chicago", "boston", "kyoto", "osaka", "seoul", "sydney",
      "toronto", "vienna", "oslo", "lisbon", "dublin", "prague"}},
    {"country",
     {"china", "japan", "france", "england", "germany", "italy", "spain",
      "korea", "india", "australia", "canada", "austria", "norway", "ireland",
      "finland", "greece", "egypt", "peru", "kenya", "vietnam", "thailand"}},
    {"coffee", {"pour-over", "drip", "cortado", "americano", "mocha"}},
    {"food", {"cake", "pie", "cheesecake", "pastry", "sandwich"}},
};

}  // namespace

EmbeddingModel::EmbeddingModel() {
  for (const auto& cluster : kClusters) {
    std::vector<std::string> words;
    for (const char* w : cluster.words) words.emplace_back(w);
    AddParaphraseCluster(words);
  }
  for (const auto& rel : kRelated) {
    std::vector<std::string> instances;
    for (const char* w : rel.instances) instances.emplace_back(w);
    AddRelatedness(rel.concept_word, instances);
  }
}

void EmbeddingModel::RegisterWord(std::string_view word) {
  std::string lower = ToLower(word);
  if (in_vocab_.emplace(lower, true).second) vocab_.push_back(lower);
}

void EmbeddingModel::AddParaphraseCluster(const std::vector<std::string>& words) {
  // Reuse an existing cluster if any member already belongs to one.
  int cluster = -1;
  for (const auto& w : words) {
    auto it = cluster_of_.find(ToLower(w));
    if (it != cluster_of_.end()) {
      cluster = it->second;
      break;
    }
  }
  if (cluster == -1) {
    cluster = static_cast<int>(cluster_seeds_.size());
    // Seed the centroid from the first word so geometry is deterministic.
    cluster_seeds_.push_back(Fnv1a64(ToLower(words.front()), 0x5eedc1u));
  }
  for (const auto& w : words) {
    std::string lower = ToLower(w);
    cluster_of_[lower] = cluster;
    RegisterWord(lower);
  }
  MutexLock lock(cache_mu_);
  cache_.clear();
}

void EmbeddingModel::AddRelatedness(const std::string& concept_word,
                                    const std::vector<std::string>& instances) {
  std::string lc = ToLower(concept_word);
  RegisterWord(lc);
  for (const auto& inst : instances) {
    std::string lower = ToLower(inst);
    concept_of_[lower] = lc;
    RegisterWord(lower);
  }
  MutexLock lock(cache_mu_);
  cache_.clear();
}

EmbeddingModel::Vector EmbeddingModel::BaseVector(uint64_t seed) {
  Vector v;
  for (int i = 0; i < kDim; ++i) {
    uint64_t bits = Mix64(seed + static_cast<uint64_t>(i) * 0x9e3779b9u);
    v[i] = static_cast<float>(
        (static_cast<double>(bits >> 11) / 9007199254740992.0) * 2.0 - 1.0);
  }
  Normalize(&v);
  return v;
}

void EmbeddingModel::Normalize(Vector* v) {
  double norm = 0;
  for (float x : *v) norm += static_cast<double>(x) * x;
  norm = std::sqrt(norm);
  if (norm < 1e-12) return;
  for (float& x : *v) x = static_cast<float>(x / norm);
}

EmbeddingModel::Vector EmbeddingModel::ComputeEmbedding(const std::string& word) const {
  // Cluster membership (with naive plural stemming).
  std::string key = word;
  auto cit = cluster_of_.find(key);
  auto rit = concept_of_.find(key);
  if (cit == cluster_of_.end() && rit == concept_of_.end() && key.size() > 3 &&
      key.back() == 's') {
    std::string stem = key.substr(0, key.size() - 1);
    if (cluster_of_.count(stem) || concept_of_.count(stem)) {
      key = stem;
      cit = cluster_of_.find(key);
      rit = concept_of_.find(key);
    }
  }

  Vector base = BaseVector(Fnv1a64(key));
  if (cit != cluster_of_.end()) {
    Vector centroid = BaseVector(cluster_seeds_[cit->second]);
    Vector v;
    for (int i = 0; i < kDim; ++i) v[i] = 0.25f * base[i] + 0.75f * centroid[i];
    Normalize(&v);
    return v;
  }
  if (rit != concept_of_.end()) {
    const Vector& concept_word = Embed(rit->second);
    // Per-word jitter puts instance-concept_word cosine in ~[0.40, 0.55].
    double b = 0.40 + 0.15 * (static_cast<double>(Mix64(Fnv1a64(key, 77)) >> 11) /
                              9007199254740992.0);
    double a = std::sqrt(1.0 - b * b);
    Vector v;
    for (int i = 0; i < kDim; ++i) {
      v[i] = static_cast<float>(a * base[i] + b * concept_word[i]);
    }
    Normalize(&v);
    return v;
  }
  return base;
}

const EmbeddingModel::Vector& EmbeddingModel::Embed(std::string_view word) const {
  std::string lower = ToLower(word);
  {
    MutexLock lock(cache_mu_);
    auto it = cache_.find(lower);
    if (it != cache_.end()) return it->second;
  }
  // Computed unlocked: ComputeEmbedding re-enters Embed for a concept word.
  // A racing thread may insert the same word first; emplace then keeps its
  // (identical) vector.
  Vector v = ComputeEmbedding(lower);
  MutexLock lock(cache_mu_);
  return cache_.emplace(std::move(lower), v).first->second;
}

double EmbeddingModel::Similarity(std::string_view a, std::string_view b) const {
  const Vector& va = Embed(a);
  const Vector& vb = Embed(b);
  double dot = 0;
  for (int i = 0; i < kDim; ++i) dot += static_cast<double>(va[i]) * vb[i];
  return dot;
}

double EmbeddingModel::PhraseSimilarity(std::string_view a, std::string_view b) const {
  auto mean = [this](std::string_view phrase) {
    Vector acc{};
    int count = 0;
    for (const auto& w : SplitWhitespace(phrase)) {
      const Vector& v = Embed(w);
      for (int i = 0; i < kDim; ++i) acc[i] += v[i];
      ++count;
    }
    if (count > 0) {
      for (int i = 0; i < kDim; ++i) acc[i] /= static_cast<float>(count);
    }
    Normalize(&acc);
    return acc;
  };
  Vector va = mean(a);
  Vector vb = mean(b);
  double dot = 0;
  for (int i = 0; i < kDim; ++i) dot += static_cast<double>(va[i]) * vb[i];
  return dot;
}

std::vector<WeightedPhrase> EmbeddingModel::Neighbors(std::string_view word, int k,
                                                      double min_sim) const {
  std::string lower = ToLower(word);
  std::vector<WeightedPhrase> out;
  for (const auto& candidate : vocab_) {
    if (candidate == lower) continue;
    double sim = Similarity(lower, candidate);
    if (sim >= min_sim) out.push_back({candidate, sim});
  }
  std::sort(out.begin(), out.end(), [](const WeightedPhrase& a, const WeightedPhrase& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.text < b.text;
  });
  if (static_cast<int>(out.size()) > k) out.resize(k);
  return out;
}

}  // namespace koko
