#include "koko/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "text/lexicon.h"
#include "text/tokenizer.h"
#include "util/hash.h"
#include "util/string_util.h"

namespace koko {

namespace {

// True when the tokens of `s` from `pos` on spell `words`, ignoring case.
bool WordsAt(const Sentence& s, int pos, const std::vector<std::string>& words) {
  return std::equal(words.begin(), words.end(), s.tokens.begin() + pos,
                    [](const std::string& word, const Token& tok) {
                      return EqualsIgnoreCase(tok.text, word);
                    });
}

// Gapped (in-order, possibly non-contiguous) occurrence of `words` among
// the tokens `token_ids` of `s` that lie in [lo, hi] — §4.4.1(c)'s "word
// sequence occurs" test over one clause, on one side of the value.
bool GappedOccurrence(const Sentence& s, const std::vector<int>& token_ids,
                      int lo, int hi, const std::vector<std::string>& words) {
  if (words.empty()) return true;
  size_t w = 0;
  for (int t : token_ids) {
    if (t < lo || t > hi) continue;
    if (EqualsIgnoreCase(s.tokens[t].text, words[w]) && ++w == words.size()) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<int> TokenOccurrences(const Sentence& s,
                                  const std::vector<std::string>& needle) {
  std::vector<int> positions;
  if (needle.empty()) return positions;
  const int n = s.size();
  const int m = static_cast<int>(needle.size());
  for (int i = 0; i + m <= n; ++i) {
    if (WordsAt(s, i, needle)) positions.push_back(i);
  }
  return positions;
}

Aggregator::Aggregator(const EmbeddingModel* model,
                       const EntityRecognizer* recognizer, Options options,
                       const std::vector<std::vector<std::string>>& ontology_sets)
    : model_(model),
      recognizer_(recognizer),
      options_(options),
      config_salt_(Mix64(options.use_descriptors ? 1 : 2)),
      expander_(model) {
  for (const std::vector<std::string>& set : ontology_sets) {
    expander_.AddOntologySet(set);
    // Set boundaries matter: {"good","happy"} relates the two phrases,
    // {"good"} + {"happy"} does not — the flat phrase sequence alone must
    // not collide across different partitions.
    config_salt_ = HashCombine(config_salt_, Mix64(set.size()));
    for (const std::string& phrase : set) {
      config_salt_ = HashCombine(config_salt_, Fnv1a64(phrase));
    }
  }
}

namespace {

uint64_t DoubleBits(double x) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(x));
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Mixes a condition's kind, text and weight into `h`.
uint64_t HashCondition(uint64_t h, const SatCondition& cond) {
  h = HashCombine(h, static_cast<uint64_t>(cond.kind));
  h = HashCombine(h, Fnv1a64(cond.text));
  return HashCombine(h, DoubleBits(cond.weight));
}

}  // namespace

uint64_t Aggregator::ClauseKey(const CompiledClause& clause) const {
  uint64_t h = Fnv1a64(clause.var);
  h = HashCombine(h, clause.conditions.size());
  for (const CompiledCondition& compiled : clause.conditions) {
    h = HashCombine(h, Fnv1a64(compiled.source.var));
    h = HashCondition(h, compiled.source);
  }
  return HashCombine(config_salt_, Mix64(h));
}

uint64_t Aggregator::FilterSetKey(const CompiledQuery& cq,
                                  const std::vector<size_t>& slots) const {
  uint64_t h = Mix64(slots.size());
  for (size_t slot : slots) {
    if (slot < cq.satisfying.size()) {
      const CompiledClause& clause = cq.satisfying[slot];
      h = HashCombine(h, DoubleBits(clause.threshold));
      h = HashCombine(h, clause.conditions.size());
      for (const CompiledCondition& cond : clause.conditions) {
        h = HashCondition(h, cond.source);
      }
    } else {
      // A marker where a clause mixes its threshold and condition count,
      // so a condition never keys like a one-condition clause.
      h = HashCombine(h, Mix64(~uint64_t{0}));
      h = HashCondition(h, cq.excluding[slot - cq.satisfying.size()].source);
    }
  }
  return HashCombine(config_salt_, Mix64(h));
}

double Aggregator::Evaluate(const Document& doc, const std::string& value,
                            const CompiledCondition& cond,
                            std::vector<std::string>* value_tokens) {
  // Only the conditions that read the value's tokens split it.
  auto tokens = [&]() -> const std::vector<std::string>& {
    if (value_tokens->empty()) *value_tokens = Tokenizer::Tokenize(value);
    return *value_tokens;
  };
  switch (cond.source.kind) {
    case SatCondition::Kind::kStrContains: {
      // Token-level containment: "chocolate ice cream" contains "ice".
      const std::vector<std::string>& needle = cond.needle;
      if (needle.empty()) return 0.0;
      const std::vector<std::string>& value_toks = tokens();
      auto it = std::search(value_toks.begin(), value_toks.end(),
                            needle.begin(), needle.end());
      return it != value_toks.end() ? 1.0 : 0.0;
    }
    case SatCondition::Kind::kStrMentions:
      return Contains(value, cond.source.text) ? 1.0 : 0.0;
    case SatCondition::Kind::kStrMatches:
      return cond.pattern && cond.pattern->FullMatch(value) ? 1.0 : 0.0;
    case SatCondition::Kind::kInDict:
      return cond.dict_type &&
                     recognizer_->InGazetteer(*cond.dict_type, ToLower(value))
                 ? 1.0
                 : 0.0;
    case SatCondition::Kind::kFollowedBy:
    case SatCondition::Kind::kPrecededBy:
      return OccursBeside(doc, tokens(), cond.needle,
                          cond.source.kind == SatCondition::Kind::kFollowedBy)
                 ? 1.0
                 : 0.0;
    case SatCondition::Kind::kNear:
      return ScoreNear(doc, tokens(), cond.needle);
    case SatCondition::Kind::kDescriptorRight:
    case SatCondition::Kind::kDescriptorLeft:
      if (!options_.use_descriptors) return 0.0;
      return ScoreDescriptor(
          doc, tokens(), cond,
          /*right_side=*/cond.source.kind == SatCondition::Kind::kDescriptorRight);
    case SatCondition::Kind::kSimilarTo:
      return SimilarToScore(tokens(), cond.similar_target);
  }
  return 0.0;
}

double Aggregator::ConditionScore(const Document& doc, const std::string& value,
                                  const CompiledCondition& cond) {
  std::vector<std::string> value_tokens;
  return Evaluate(doc, value, cond, &value_tokens);
}

double Aggregator::Score(const Document& doc, const std::string& value,
                         const CompiledClause& clause) {
  std::vector<std::string> value_tokens;
  double total = 0;
  for (const CompiledCondition& cond : clause.conditions) {
    total += cond.source.weight * Evaluate(doc, value, cond, &value_tokens);
  }
  return total;
}

bool Aggregator::OccursBeside(const Document& doc,
                              const std::vector<std::string>& value_tokens,
                              const std::vector<std::string>& needle,
                              bool after) const {
  const int value_len = static_cast<int>(value_tokens.size());
  const int needle_len = static_cast<int>(needle.size());
  for (const Sentence& s : doc.sentences) {
    for (int pos : TokenOccurrences(s, value_tokens)) {
      const int start = after ? pos + value_len : pos - needle_len;
      if (start >= 0 && start + needle_len <= s.size() &&
          WordsAt(s, start, needle)) {
        return true;
      }
    }
  }
  return false;
}

double Aggregator::ScoreNear(const Document& doc,
                             const std::vector<std::string>& value_tokens,
                             const std::vector<std::string>& needle) const {
  double best = 0;
  for (const Sentence& s : doc.sentences) {
    std::vector<int> value_pos = TokenOccurrences(s, value_tokens);
    if (value_pos.empty()) continue;
    std::vector<int> text_pos = TokenOccurrences(s, needle);
    for (int vp : value_pos) {
      int vend = vp + static_cast<int>(value_tokens.size()) - 1;
      for (int tp : text_pos) {
        int tend = tp + static_cast<int>(needle.size()) - 1;
        // Token distance between the two mentions: 0 when they are adjacent
        // or overlap.
        const int distance = std::max({0, tp - vend - 1, vp - tend - 1});
        best = std::max(best, 1.0 / (1.0 + distance));
      }
    }
  }
  return best;
}

double Aggregator::ScoreDescriptor(const Document& doc,
                                   const std::vector<std::string>& value_tokens,
                                   const CompiledCondition& cond,
                                   bool right_side) {
  // Expanded on this descriptor's first use in the query, each expansion's
  // words split once.
  auto [slot, fresh] = expansions_.try_emplace(&cond);
  if (fresh) {
    for (const WeightedPhrase& phrase : expander_.Expand(cond.source.text)) {
      slot->second.push_back({phrase.score, SplitWhitespace(phrase.text)});
    }
  }
  const std::vector<Expansion>& expansions = slot->second;
  double doc_total = 0;
  for (const Sentence& s : doc.sentences) {
    std::vector<int> occurrences = TokenOccurrences(s, value_tokens);
    if (occurrences.empty()) continue;
    auto clauses = SentenceDecomposer::Decompose(s);
    double best_over_expansions = 0;
    for (const Expansion& expansion : expansions) {
      double sum_over_clauses = 0;
      for (const auto& clause : clauses) {
        // Only the tokens of the clause on the required side of the value
        // count; any occurrence that matches gives the clause its score.
        for (int occ : occurrences) {
          const int vend = occ + static_cast<int>(value_tokens.size()) - 1;
          const int lo = right_side ? vend + 1 : 0;
          const int hi = right_side ? std::numeric_limits<int>::max() : occ - 1;
          if (GappedOccurrence(s, clause.token_ids, lo, hi, expansion.words)) {
            sum_over_clauses += expansion.score * clause.score;
            break;
          }
        }
      }
      best_over_expansions = std::max(best_over_expansions, sum_over_clauses);
    }
    doc_total += best_over_expansions;
  }
  return doc_total;
}

double Aggregator::SimilarToScore(const std::vector<std::string>& value_tokens,
                                  const std::string& target) const {
  const Lexicon& lex = Lexicon::Get();
  double best = 0;
  for (const std::string& tok : value_tokens) {
    std::string lower = ToLower(tok);
    if (lex.IsFunctionWord(lower) || lower.size() <= 1) continue;
    if (lower == target) return 1.0;
    best = std::max(best, model_->PhraseSimilarity(lower, target));
  }
  return std::clamp(best, 0.0, 1.0);
}

}  // namespace koko
