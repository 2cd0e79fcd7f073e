#include "embed/descriptor.h"

#include <algorithm>

#include "text/lexicon.h"
#include "util/string_util.h"

namespace koko {

namespace {

// Embedding neighbours tried per content word, and the least similarity a
// neighbour needs to be kept.
constexpr int kNeighborsPerWord = 6;
constexpr double kMinWordSimilarity = 0.35;
// KOKO "descriptors now default to a fixed number of expanded terms".
constexpr size_t kMaxExpansions = 24;

}  // namespace

DescriptorExpander::DescriptorExpander(const EmbeddingModel* model)
    : model_(model) {}

void DescriptorExpander::AddOntologySet(const std::vector<std::string>& related) {
  std::vector<std::string> lower;
  lower.reserve(related.size());
  for (const auto& w : related) lower.push_back(ToLower(w));
  ontology_sets_.push_back(std::move(lower));
}

std::vector<WeightedPhrase> DescriptorExpander::Expand(
    const std::string& descriptor) const {
  const std::vector<std::string> words = SplitWhitespace(ToLower(descriptor));
  if (words.empty()) return {};

  // Per-word substitution lists: the word itself (1.0), embedding
  // neighbours, and ontology siblings (0.95 — "safe" substitutions).
  std::vector<std::vector<WeightedPhrase>> subs(words.size());
  const Lexicon& lex = Lexicon::Get();
  for (size_t i = 0; i < words.size(); ++i) {
    subs[i].push_back({words[i], 1.0});
    if (lex.IsFunctionWord(words[i])) continue;  // only content words expand
    for (auto& n :
         model_->Neighbors(words[i], kNeighborsPerWord, kMinWordSimilarity)) {
      subs[i].push_back(std::move(n));
    }
    for (const auto& set : ontology_sets_) {
      if (std::find(set.begin(), set.end(), words[i]) == set.end()) continue;
      for (const auto& sibling : set) {
        if (sibling == words[i]) continue;
        bool present = false;
        for (const auto& existing : subs[i]) {
          if (existing.text == sibling) {
            present = true;
            break;
          }
        }
        if (!present) subs[i].push_back({sibling, 0.95});
      }
    }
  }

  // Cartesian product, highest-scoring combinations first. The product is
  // enumerated eagerly but bounded: per-word lists are short (<~12).
  std::vector<WeightedPhrase> expansions;
  std::vector<size_t> choice(words.size(), 0);
  // Simple approach: enumerate all combinations, then sort and cap.
  size_t total = 1;
  for (const auto& s : subs) total *= std::max<size_t>(1, s.size());
  total = std::min<size_t>(total, 4096);
  std::vector<size_t> radices(words.size());
  for (size_t i = 0; i < words.size(); ++i) radices[i] = subs[i].size();
  for (size_t combo = 0; combo < total; ++combo) {
    size_t rem = combo;
    double score = 1.0;
    std::string text;
    for (size_t i = 0; i < words.size(); ++i) {
      size_t pick = rem % radices[i];
      rem /= radices[i];
      const WeightedPhrase& wp = subs[i][pick];
      score *= wp.score;
      if (!text.empty()) text += ' ';
      text += wp.text;
    }
    expansions.push_back({std::move(text), score});
  }
  std::sort(expansions.begin(), expansions.end(),
            [](const WeightedPhrase& a, const WeightedPhrase& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.text < b.text;
            });
  if (expansions.size() > kMaxExpansions) expansions.resize(kMaxExpansions);
  return expansions;
}

std::string SentenceDecomposer::Clause::Text(const Sentence& s) const {
  std::string out;
  for (size_t i = 0; i < token_ids.size(); ++i) {
    if (i > 0) out += ' ';
    out += s.tokens[token_ids[i]].text;
  }
  return out;
}

std::vector<SentenceDecomposer::Clause> SentenceDecomposer::Decompose(
    const Sentence& s) {
  const int n = s.size();
  std::vector<Clause> clauses;
  if (n == 0) return clauses;

  auto is_clause_head = [&](int i) {
    if (i == s.root) return true;
    if (s.tokens[i].pos != PosTag::kVerb) return false;
    switch (s.tokens[i].label) {
      case DepLabel::kConj:
      case DepLabel::kRcmod:
      case DepLabel::kCcomp:
      case DepLabel::kXcomp:
        return true;
      default:
        return false;
    }
  };

  std::vector<int> heads;
  for (int i = 0; i < n; ++i) {
    if (is_clause_head(i)) heads.push_back(i);
  }
  if (heads.empty()) heads.push_back(s.root);

  // clause_of[t] = nearest clause-head ancestor (or self).
  std::vector<int> clause_of(n, -1);
  for (int t = 0; t < n; ++t) {
    int cur = t;
    while (cur != -1) {
      if (is_clause_head(cur)) {
        clause_of[t] = cur;
        break;
      }
      cur = s.tokens[cur].head;
    }
    if (clause_of[t] == -1) clause_of[t] = s.root;
  }

  for (int h : heads) {
    Clause c;
    for (int t = 0; t < n; ++t) {
      if (clause_of[t] == h && s.tokens[t].pos != PosTag::kPunct) {
        c.token_ids.push_back(t);
      }
    }
    if (c.token_ids.empty()) continue;
    if (h == s.root) {
      c.score = 1.0;
    } else if (s.tokens[h].label == DepLabel::kConj) {
      c.score = 0.9;
    } else {
      c.score = 0.8;
    }
    clauses.push_back(std::move(c));
  }
  if (clauses.empty()) {
    Clause whole;
    for (int t = 0; t < n; ++t) {
      if (s.tokens[t].pos != PosTag::kPunct) whole.token_ids.push_back(t);
    }
    whole.score = 1.0;
    clauses.push_back(std::move(whole));
  }
  return clauses;
}

}  // namespace koko
