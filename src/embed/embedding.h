#ifndef KOKO_EMBED_EMBEDDING_H_
#define KOKO_EMBED_EMBEDDING_H_

#include <array>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace koko {

/// A phrase with an associated confidence/similarity score in [0, 1].
struct WeightedPhrase {
  std::string text;
  double score = 0.0;
};

/// \brief Deterministic paraphrase-aware word-embedding model.
///
/// Substitute for the counter-fitted paraphrase embeddings the paper uses
/// (github.com/nmrksic/counter-fitting). The geometry is constructed rather
/// than trained:
///
///  * every word gets a hash-seeded unit base vector (near-orthogonal to
///    all others);
///  * words in the same paraphrase cluster (serve/sell/offer..., coffee/
///    espresso/macchiato...) are pulled 75% toward a shared centroid, giving
///    within-cluster cosine ~0.9 — the "counter-fitting" effect;
///  * is-a relatedness lists (city -> tokyo, beijing...) pull instances
///    weakly toward the concept_word vector, giving cosine ~0.35-0.55 with a
///    per-word deterministic jitter (matching the score spread of the
///    paper's Example 2.2);
///  * unrelated words stay near-orthogonal (cosine ~0).
///
/// This realises exactly the property descriptor expansion needs: synonyms
/// score high, related terms medium, noise ~zero — deterministically, so
/// tests can assert on expansions.
class EmbeddingModel {
 public:
  static constexpr int kDim = 512;
  using Vector = std::array<float, kDim>;

  /// Model with the built-in paraphrase clusters and relatedness lists.
  EmbeddingModel();

  /// Embedding of a (lower-cased) word. Unknown words get their hash-seeded
  /// base vector. A trailing plural 's' is stripped when the exact form is
  /// unknown but the singular is in a cluster. Safe to call from concurrent
  /// queries; the reference stays valid until the next mutating call.
  const Vector& Embed(std::string_view word) const KOKO_EXCLUDES(cache_mu_);

  /// Cosine similarity of two words, in [-1, 1] (practically [0, 1] here).
  double Similarity(std::string_view a, std::string_view b) const;

  /// Cosine similarity of mean vectors of the two phrases' words.
  double PhraseSimilarity(std::string_view a, std::string_view b) const;

  /// Top-k vocabulary words most similar to `word` with similarity >=
  /// `min_sim`, excluding the word itself. Only words in clusters or
  /// relatedness lists (plus registered words) are candidates.
  std::vector<WeightedPhrase> Neighbors(std::string_view word, int k,
                                        double min_sim) const;

  /// Adds a word to the neighbour-candidate vocabulary.
  void RegisterWord(std::string_view word);

  /// Declares `words` mutually paraphrastic (joins/extends a cluster).
  void AddParaphraseCluster(const std::vector<std::string>& words);

  /// Declares every word of `instances` an instance of `concept_word`
  /// (similarity ~0.35-0.55 to the concept_word).
  void AddRelatedness(const std::string& concept_word,
                      const std::vector<std::string>& instances);

  const std::vector<std::string>& vocabulary() const { return vocab_; }

 private:
  Vector ComputeEmbedding(const std::string& word) const;
  static Vector BaseVector(uint64_t seed);
  static void Normalize(Vector* v);

  std::unordered_map<std::string, int> cluster_of_;       // word -> cluster id
  std::vector<uint64_t> cluster_seeds_;                   // cluster id -> seed
  std::unordered_map<std::string, std::string> concept_of_;  // instance -> concept_word
  std::vector<std::string> vocab_;
  std::unordered_map<std::string, bool> in_vocab_;
  // Filled lazily by the const Embed, which concurrent queries share.
  // Entries are never erased while queries run, so references into the map
  // survive later inserts.
  mutable Mutex cache_mu_;
  mutable std::unordered_map<std::string, Vector> cache_
      KOKO_GUARDED_BY(cache_mu_);
};

}  // namespace koko

#endif  // KOKO_EMBED_EMBEDDING_H_
