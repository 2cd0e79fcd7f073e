#ifndef KOKO_TEXT_DOCUMENT_H_
#define KOKO_TEXT_DOCUMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/annotations.h"

namespace koko {

/// One token of a sentence with all of its annotations. `head` is the index
/// of the parent token in the sentence's dependency tree (-1 for the root).
struct Token {
  std::string text;
  PosTag pos = PosTag::kX;
  DepLabel label = DepLabel::kDep;
  int head = -1;
  EntityType etype = EntityType::kNone;
  int entity_id = -1;  // index into Sentence::entities, -1 when outside
};

/// A typed entity mention covering tokens [begin, end] inclusive.
struct Entity {
  int begin = 0;
  int end = 0;
  EntityType type = EntityType::kOther;
};

/// \brief A parsed sentence: tokens plus derived dependency-tree geometry.
///
/// After annotation, ComputeTreeInfo() derives for every token the quantities
/// the paper's indices store: the leftmost (u) and rightmost (v) token id of
/// its subtree and its depth (d) in the dependency tree (root depth = 0).
struct Sentence {
  std::vector<Token> tokens;
  std::vector<Entity> entities;

  // Derived; valid after ComputeTreeInfo().
  std::vector<int> subtree_left;
  std::vector<int> subtree_right;
  std::vector<int> depth;
  std::vector<std::vector<int>> children;
  int root = -1;

  int size() const { return static_cast<int>(tokens.size()); }

  /// Recomputes children lists, subtree extents, and depths from heads.
  /// Must be called after heads/labels change.
  void ComputeTreeInfo();

  /// Joins tokens [begin, end] (inclusive) with single spaces; empty when
  /// end < begin.
  std::string SpanText(int begin, int end) const;

  /// Appends SpanText(begin, end) to *out.
  void AppendSpanText(int begin, int end, std::string* out) const;

  /// Fnv1a64 of SpanText(begin, end), computed over the tokens in place.
  uint64_t SpanTextHash(int begin, int end) const;

  /// True when SpanText(begin, end) equals other.SpanText(other_begin,
  /// other_end), compared character by character in place. A token may
  /// contain spaces, so spans of different token counts can be equal.
  bool SpanTextEquals(int begin, int end, const Sentence& other,
                      int other_begin, int other_end) const;

  /// Full surface text of the sentence.
  std::string Text() const { return SpanText(0, size() - 1); }

  /// True when `ancestor` is a proper ancestor of `node` in the tree.
  bool IsAncestor(int ancestor, int node) const;
};

/// A document (e.g. one article or one blog post).
struct Document {
  uint32_t id = 0;
  std::string title;
  std::vector<Sentence> sentences;
};

/// Global sentence coordinates: which document and which sentence within it.
struct SentenceRef {
  uint32_t doc = 0;
  uint32_t sent = 0;
};

/// \brief A fully annotated corpus with a global sentence numbering.
///
/// Indices address sentences by global sentence id (sid) as in the paper's
/// Example 3.1; `refs[sid]` maps back to (document, sentence).
struct AnnotatedCorpus {
  std::vector<Document> docs;
  std::vector<SentenceRef> refs;

  size_t NumSentences() const { return refs.size(); }
  size_t NumDocs() const { return docs.size(); }

  const Sentence& sentence(uint32_t sid) const {
    const SentenceRef& ref = refs[sid];
    return docs[ref.doc].sentences[ref.sent];
  }

  /// Rebuilds refs after docs changed.
  void RebuildRefs();

  /// Total number of tokens (for stats and size accounting).
  size_t NumTokens() const;
};

}  // namespace koko

#endif  // KOKO_TEXT_DOCUMENT_H_
