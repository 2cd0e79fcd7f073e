#ifndef KOKO_KOKO_AGGREGATE_H_
#define KOKO_KOKO_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "embed/descriptor.h"
#include "embed/embedding.h"
#include "koko/compile.h"
#include "ner/entity_recognizer.h"
#include "text/document.h"

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
///
/// One Aggregator serves one query on one thread. Conditions arrive
/// compiled (koko/compile.h), so scoring compiles nothing; a descriptor is
/// expanded on its first use and its expansions are kept by the address of
/// its condition, so every condition scored must outlive the Aggregator.
class Aggregator {
 public:
  struct Options {
    /// When false, descriptor conditions contribute zero (the Figure 5
    /// "without descriptors" ablation).
    bool use_descriptors = true;
  };

  /// `ontology_sets` are domain sets for descriptor expansion (the paper's
  /// coffee-drinks dictionary hook); the Aggregator keeps its own copy.
  Aggregator(const EmbeddingModel* model, const EntityRecognizer* recognizer,
             Options options,
             const std::vector<std::vector<std::string>>& ontology_sets = {});

  /// Total weighted score of `value` for `clause` over `doc`.
  double Score(const Document& doc, const std::string& value,
               const CompiledClause& clause);

  /// Confidence of one condition in isolation: an excluding condition
  /// excludes when it is positive, and the explainer breaks a score down
  /// into these.
  double ConditionScore(const Document& doc, const std::string& value,
                        const CompiledCondition& cond);

  /// ScoreCache key of `clause` under this Aggregator's configuration: the
  /// clause's variable and every condition's kind, variable, text and
  /// weight (not the threshold, which gates rows after scoring), salted
  /// with `use_descriptors` and the ontology sets. Equal keys score equally
  /// on every document, so one cache may serve engines of different
  /// configurations over one corpus.
  uint64_t ClauseKey(const CompiledClause& clause) const;

  /// ScoreCache verdict-table key of one variable's value filters `slots`
  /// (numbered as ValueFilter::slot): each slot's clause threshold or
  /// excluding mark, and every condition's kind, text and weight, salted
  /// like ClauseKey. Variable names are left out, since a value-only
  /// condition reads only the value's text, so queries that filter
  /// different variables alike share one table.
  uint64_t FilterSetKey(const CompiledQuery& cq,
                        const std::vector<size_t>& slots) const;

 private:
  struct Expansion {
    double score;
    std::vector<std::string> words;
  };

  // ConditionScore with the value's tokens split on first need into
  // `*value_tokens`, so a clause splits its value once.
  double Evaluate(const Document& doc, const std::string& value,
                  const CompiledCondition& cond,
                  std::vector<std::string>* value_tokens);
  double ScoreDescriptor(const Document& doc,
                         const std::vector<std::string>& value_tokens,
                         const CompiledCondition& cond, bool right_side);
  double ScoreNear(const Document& doc, const std::vector<std::string>& value_tokens,
                   const std::vector<std::string>& needle) const;
  // True when some occurrence of the value is directly followed
  // (`after`) or preceded by `needle`.
  bool OccursBeside(const Document& doc,
                    const std::vector<std::string>& value_tokens,
                    const std::vector<std::string>& needle, bool after) const;
  double SimilarToScore(const std::vector<std::string>& value_tokens,
                        const std::string& target) const;

  const EmbeddingModel* model_;
  const EntityRecognizer* recognizer_;
  Options options_;
  uint64_t config_salt_;
  DescriptorExpander expander_;
  std::unordered_map<const CompiledCondition*, std::vector<Expansion>>
      expansions_;
};

/// Positions where `needle` occurs as a contiguous token subsequence of the
/// sentence (case-insensitive token comparison). Helper shared with tests.
std::vector<int> TokenOccurrences(const Sentence& s,
                                  const std::vector<std::string>& needle);

}  // namespace koko

#endif  // KOKO_KOKO_AGGREGATE_H_
