#ifndef KOKO_KOKO_AGGREGATE_H_
#define KOKO_KOKO_AGGREGATE_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/descriptor.h"
#include "embed/embedding.h"
#include "koko/ast.h"
#include "ner/entity_recognizer.h"
#include "regex/regex.h"
#include "text/document.h"
#include "util/thread_annotations.h"

namespace koko {

/// \brief Evidence aggregation for satisfying/excluding clauses (§4.4).
///
/// Scores a candidate value against a whole document:
///
///   score(e) = Σᵢ wᵢ · mᵢ(e)
///
/// with boolean conditions contributing 0/1 (multiplicity ignored),
/// `near` contributing the best 1/(1+distance), SimilarTo contributing the
/// embedding similarity, and descriptor conditions contributing the summed
/// per-sentence confidences of §4.4.1(c): each sentence is decomposed into
/// canonical clauses, each expansion dᵢ of the descriptor is matched as a
/// gapped word sequence against each clause cⱼ on the required side of the
/// value, and conf = maxᵢ Σⱼ kᵢ·lⱼ.
class Aggregator {
 public:
  struct Options {
    /// When false, descriptor conditions contribute zero (the Figure 5
    /// "without descriptors" ablation).
    bool use_descriptors = true;
  };

  Aggregator(const EmbeddingModel* model, const EntityRecognizer* recognizer,
             Options options);

  /// Total weighted score of `value` for `clause` over `doc`.
  double Score(const Document& doc, const std::string& value,
               const SatisfyingClause& clause) const;

  /// True when `value` triggers the excluding condition (boolean semantics;
  /// descriptor/near conditions exclude when their confidence is positive).
  bool Excluded(const Document& doc, const std::string& value,
                const SatCondition& cond) const;

  /// Confidence of one condition in isolation (exposed for tests).
  double ConditionScore(const Document& doc, const std::string& value,
                        const SatCondition& cond) const;

  /// Registers a domain ontology set for descriptor expansion (the paper's
  /// coffee-drinks dictionary hook).
  void AddOntologySet(const std::vector<std::string>& related);

 private:
  const std::vector<WeightedPhrase>& Expansions(const std::string& descriptor) const;

  /// `str(x) matches` pattern, compiled on first use; null when it does not
  /// compile.
  const Regex* Pattern(const std::string& pattern) const;

  double ScoreDescriptor(const Document& doc,
                         const std::vector<std::string>& value_tokens,
                         const std::string& descriptor, bool right_side) const;
  double ScoreNear(const Document& doc, const std::vector<std::string>& value_tokens,
                   const std::string& text) const;
  bool OccursFollowedBy(const Document& doc,
                        const std::vector<std::string>& value_tokens,
                        const std::vector<std::string>& suffix) const;
  bool OccursPrecededBy(const Document& doc,
                        const std::vector<std::string>& value_tokens,
                        const std::vector<std::string>& prefix) const;
  double SimilarToScore(const std::vector<std::string>& value_tokens,
                        const std::string& descriptor) const;

  const EmbeddingModel* model_;
  const EntityRecognizer* recognizer_;
  Options options_;
  /// Guards the expansion memo (and the expander feeding it):
  /// Score/Excluded/ConditionScore are safe to call from concurrent serving
  /// threads sharing one Aggregator. Register ontology sets before any
  /// concurrent scoring starts — AddOntologySet invalidates references
  /// handed out by Expansions().
  mutable Mutex expansion_mu_;
  DescriptorExpander expander_ KOKO_GUARDED_BY(expansion_mu_);
  mutable std::unordered_map<std::string, std::vector<WeightedPhrase>>
      expansion_cache_ KOKO_GUARDED_BY(expansion_mu_);
  /// Guards the compiled `matches` patterns the same way; entries are never
  /// erased, so handed-out pointers stay valid for the Aggregator's life.
  mutable Mutex regex_mu_;
  mutable std::unordered_map<std::string, std::optional<Regex>> regex_cache_
      KOKO_GUARDED_BY(regex_mu_);
};

/// Positions where `needle` occurs as a contiguous token subsequence of the
/// sentence (case-insensitive token comparison). Helper shared with tests.
std::vector<int> TokenOccurrences(const Sentence& s,
                                  const std::vector<std::string>& needle);

}  // namespace koko

#endif  // KOKO_KOKO_AGGREGATE_H_
