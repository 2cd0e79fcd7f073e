#include "koko/aggregate.h"

#include <algorithm>

#include "regex/regex.h"
#include "text/lexicon.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace koko {

namespace {

// Gapped (in-order, possibly non-contiguous) occurrence of `words` within
// the token texts `pool` — §4.4.1(c)'s "word sequence occurs" test.
bool GappedOccurrence(const std::vector<std::string>& pool,
                      const std::vector<std::string>& words) {
  size_t w = 0;
  for (const std::string& tok : pool) {
    if (w < words.size() && EqualsIgnoreCase(tok, words[w])) ++w;
  }
  return w == words.size();
}

}  // namespace

std::vector<int> TokenOccurrences(const Sentence& s,
                                  const std::vector<std::string>& needle) {
  std::vector<int> positions;
  if (needle.empty()) return positions;
  const int n = s.size();
  const int m = static_cast<int>(needle.size());
  for (int i = 0; i + m <= n; ++i) {
    bool match = true;
    for (int j = 0; j < m; ++j) {
      if (!EqualsIgnoreCase(s.tokens[i + j].text, needle[static_cast<size_t>(j)])) {
        match = false;
        break;
      }
    }
    if (match) positions.push_back(i);
  }
  return positions;
}

Aggregator::Aggregator(const EmbeddingModel* model,
                       const EntityRecognizer* recognizer, Options options)
    : model_(model),
      recognizer_(recognizer),
      options_(options),
      expander_(model) {}

void Aggregator::AddOntologySet(const std::vector<std::string>& related) {
  MutexLock lock(expansion_mu_);
  expander_.AddOntologySet(related);
  expansion_cache_.clear();
}

const std::vector<WeightedPhrase>& Aggregator::Expansions(
    const std::string& descriptor) const {
  // Serialized so Score() stays safe to call from concurrent serving
  // threads sharing one Aggregator. References into the node-based map are
  // stable across later insertions; only AddOntologySet (setup time, before
  // any concurrent scoring) invalidates them.
  MutexLock lock(expansion_mu_);
  auto it = expansion_cache_.find(descriptor);
  if (it != expansion_cache_.end()) return it->second;
  return expansion_cache_.emplace(descriptor, expander_.Expand(descriptor))
      .first->second;
}

const Regex* Aggregator::Pattern(const std::string& pattern) const {
  MutexLock lock(regex_mu_);
  auto [it, fresh] = regex_cache_.try_emplace(pattern);
  if (fresh) {
    auto re = Regex::Compile(pattern);
    if (re.ok()) it->second.emplace(std::move(*re));
  }
  return it->second ? &*it->second : nullptr;
}

double Aggregator::ConditionScore(const Document& doc, const std::string& value,
                                  const SatCondition& cond) const {
  // Only the conditions that read the value's tokens tokenize it.
  switch (cond.kind) {
    case SatCondition::Kind::kStrContains: {
      // Token-level containment: "chocolate ice cream" contains "ice".
      std::vector<std::string> needle = Tokenizer::Tokenize(cond.text);
      if (needle.empty()) return 0.0;
      const std::vector<std::string> value_tokens = Tokenizer::Tokenize(value);
      for (size_t i = 0; i + needle.size() <= value_tokens.size(); ++i) {
        bool ok = true;
        for (size_t j = 0; j < needle.size(); ++j) {
          if (value_tokens[i + j] != needle[j]) {
            ok = false;
            break;
          }
        }
        if (ok) return 1.0;
      }
      return 0.0;
    }
    case SatCondition::Kind::kStrMentions:
      return Contains(value, cond.text) ? 1.0 : 0.0;
    case SatCondition::Kind::kStrMatches: {
      const Regex* re = Pattern(cond.text);
      return re != nullptr && re->FullMatch(value) ? 1.0 : 0.0;
    }
    case SatCondition::Kind::kInDict: {
      EntityType etype;
      if (!ParseEntityType(cond.text, &etype)) return 0.0;
      return recognizer_->InGazetteer(etype, ToLower(value)) ? 1.0 : 0.0;
    }
    case SatCondition::Kind::kFollowedBy:
      return OccursFollowedBy(doc, Tokenizer::Tokenize(value),
                              Tokenizer::Tokenize(cond.text))
                 ? 1.0
                 : 0.0;
    case SatCondition::Kind::kPrecededBy:
      return OccursPrecededBy(doc, Tokenizer::Tokenize(value),
                              Tokenizer::Tokenize(cond.text))
                 ? 1.0
                 : 0.0;
    case SatCondition::Kind::kNear:
      return ScoreNear(doc, Tokenizer::Tokenize(value), cond.text);
    case SatCondition::Kind::kDescriptorRight:
      if (!options_.use_descriptors) return 0.0;
      return ScoreDescriptor(doc, Tokenizer::Tokenize(value), cond.text,
                             /*right_side=*/true);
    case SatCondition::Kind::kDescriptorLeft:
      if (!options_.use_descriptors) return 0.0;
      return ScoreDescriptor(doc, Tokenizer::Tokenize(value), cond.text,
                             /*right_side=*/false);
    case SatCondition::Kind::kSimilarTo:
      return SimilarToScore(Tokenizer::Tokenize(value), cond.text);
  }
  return 0.0;
}

double Aggregator::Score(const Document& doc, const std::string& value,
                         const SatisfyingClause& clause) const {
  double total = 0;
  for (const SatCondition& cond : clause.conditions) {
    total += cond.weight * ConditionScore(doc, value, cond);
  }
  return total;
}

bool Aggregator::Excluded(const Document& doc, const std::string& value,
                          const SatCondition& cond) const {
  return ConditionScore(doc, value, cond) > 0.0;
}

bool Aggregator::OccursFollowedBy(const Document& doc,
                                  const std::vector<std::string>& value_tokens,
                                  const std::vector<std::string>& suffix) const {
  for (const Sentence& s : doc.sentences) {
    for (int pos : TokenOccurrences(s, value_tokens)) {
      int after = pos + static_cast<int>(value_tokens.size());
      if (after + static_cast<int>(suffix.size()) > s.size()) continue;
      bool ok = true;
      for (size_t j = 0; j < suffix.size(); ++j) {
        if (!EqualsIgnoreCase(s.tokens[after + static_cast<int>(j)].text,
                              suffix[j])) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
  }
  return false;
}

bool Aggregator::OccursPrecededBy(const Document& doc,
                                  const std::vector<std::string>& value_tokens,
                                  const std::vector<std::string>& prefix) const {
  for (const Sentence& s : doc.sentences) {
    for (int pos : TokenOccurrences(s, value_tokens)) {
      int start = pos - static_cast<int>(prefix.size());
      if (start < 0) continue;
      bool ok = true;
      for (size_t j = 0; j < prefix.size(); ++j) {
        if (!EqualsIgnoreCase(s.tokens[start + static_cast<int>(j)].text,
                              prefix[j])) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
  }
  return false;
}

double Aggregator::ScoreNear(const Document& doc,
                             const std::vector<std::string>& value_tokens,
                             const std::string& text) const {
  std::vector<std::string> needle = Tokenizer::Tokenize(text);
  double best = 0;
  for (const Sentence& s : doc.sentences) {
    std::vector<int> value_pos = TokenOccurrences(s, value_tokens);
    if (value_pos.empty()) continue;
    std::vector<int> text_pos = TokenOccurrences(s, needle);
    for (int vp : value_pos) {
      int vend = vp + static_cast<int>(value_tokens.size()) - 1;
      for (int tp : text_pos) {
        int tend = tp + static_cast<int>(needle.size()) - 1;
        // Token distance between the two mentions (0 when adjacent).
        int distance;
        if (tp > vend) {
          distance = tp - vend - 1;
        } else if (vp > tend) {
          distance = vp - tend - 1;
        } else {
          distance = 0;  // overlapping
        }
        best = std::max(best, 1.0 / (1.0 + distance));
      }
    }
  }
  return best;
}

double Aggregator::ScoreDescriptor(const Document& doc,
                                   const std::vector<std::string>& value_tokens,
                                   const std::string& descriptor,
                                   bool right_side) const {
  const std::vector<WeightedPhrase>& expansions = Expansions(descriptor);
  double doc_total = 0;
  for (const Sentence& s : doc.sentences) {
    std::vector<int> occurrences = TokenOccurrences(s, value_tokens);
    if (occurrences.empty()) continue;
    auto clauses = SentenceDecomposer::Decompose(s);
    double best_over_expansions = 0;
    for (const WeightedPhrase& expansion : expansions) {
      std::vector<std::string> words = SplitWhitespace(expansion.text);
      double sum_over_clauses = 0;
      for (const auto& clause : clauses) {
        // Only the tokens of the clause on the required side of the value.
        double clause_best = 0;
        for (int occ : occurrences) {
          int vbegin = occ;
          int vend = occ + static_cast<int>(value_tokens.size()) - 1;
          std::vector<std::string> pool;
          for (int t : clause.token_ids) {
            if (right_side ? t > vend : t < vbegin) {
              pool.push_back(s.tokens[t].text);
            }
          }
          if (GappedOccurrence(pool, words)) {
            clause_best = std::max(clause_best, expansion.score * clause.score);
          }
        }
        sum_over_clauses += clause_best;
      }
      best_over_expansions = std::max(best_over_expansions, sum_over_clauses);
    }
    doc_total += best_over_expansions;
  }
  return doc_total;
}

double Aggregator::SimilarToScore(const std::vector<std::string>& value_tokens,
                                  const std::string& descriptor) const {
  const Lexicon& lex = Lexicon::Get();
  double best = 0;
  for (const std::string& tok : value_tokens) {
    std::string lower = ToLower(tok);
    if (lex.IsFunctionWord(lower) || lower.size() <= 1) continue;
    if (EqualsIgnoreCase(lower, descriptor)) return 1.0;
    best = std::max(best, model_->PhraseSimilarity(lower, ToLower(descriptor)));
  }
  return std::clamp(best, 0.0, 1.0);
}

}  // namespace koko
