#ifndef KOKO_EMBED_DESCRIPTOR_H_
#define KOKO_EMBED_DESCRIPTOR_H_

#include <string>
#include <vector>

#include "embed/embedding.h"
#include "text/document.h"

namespace koko {

/// \brief Descriptor expansion (paper §4.4.1(a)).
///
/// A descriptor like "serves coffee" is expanded to semantically close
/// phrases ("sells espresso", ...) by substituting each content word with
/// its embedding neighbours; the expansion score k_i is the product of the
/// per-word similarities. A domain ontology (sets of interchangeable
/// domain terms, e.g. coffee drinks) contributes additional safe
/// substitutions at full confidence, mirroring the paper's footnote about
/// supplying a coffee dictionary. An expansion keeps at most 24 phrasings
/// (KOKO's fixed number of expanded terms), drawn from each content word's
/// 6 nearest neighbours with similarity at least 0.35.
class DescriptorExpander {
 public:
  explicit DescriptorExpander(const EmbeddingModel* model);

  /// Adds a set of mutually substitutable domain terms.
  void AddOntologySet(const std::vector<std::string>& related);

  /// Expands `descriptor` into scored alternate phrasings; the original
  /// descriptor itself is always included with score 1.0.
  std::vector<WeightedPhrase> Expand(const std::string& descriptor) const;

 private:
  const EmbeddingModel* model_;
  std::vector<std::vector<std::string>> ontology_sets_;
};

/// \brief Clause-level sentence decomposition (paper §4.4.1(b)).
///
/// Implements stage (1) of Angeli et al.'s decomposition: segmenting a
/// sentence into canonical clauses, using the dependency tree. Each clause
/// is the subtree of a clausal head (root, conj, rcmod, ccomp, xcomp)
/// minus any nested clause subtrees. Scores l_j: 1.0 for the main clause,
/// 0.9 for coordinated, 0.8 for subordinate clauses.
class SentenceDecomposer {
 public:
  struct Clause {
    std::vector<int> token_ids;  // ascending token indices in the sentence
    double score = 1.0;

    /// Surface text of the clause (tokens joined by spaces).
    std::string Text(const Sentence& s) const;
  };

  /// Decomposes `s` (tree info must be computed). Always returns at least
  /// one clause for non-empty sentences.
  static std::vector<Clause> Decompose(const Sentence& s);
};

}  // namespace koko

#endif  // KOKO_EMBED_DESCRIPTOR_H_
