#include "text/document.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "util/hash.h"
#include "util/logging.h"

namespace koko {

namespace {

// The characters of SpanText(begin, end) as a run of segments: the token
// texts and the single spaces between them, never built into one string.
class SpanChars {
 public:
  SpanChars(const Sentence& s, int begin, int end)
      : s_(s), token_(begin), last_(std::min(end, s.size() - 1)) {
    Refill();
  }

  /// The unread rest of the current segment; empty once the span is done.
  std::string_view segment() const { return segment_; }

  void Consume(size_t n) {
    segment_.remove_prefix(n);
    Refill();
  }

 private:
  void Refill() {
    // Loops because a token's text may be empty.
    while (segment_.empty() && token_ <= last_) {
      if (space_next_) {
        segment_ = " ";
        space_next_ = false;
      } else {
        segment_ = s_.tokens[static_cast<size_t>(token_)].text;
        ++token_;
        space_next_ = token_ <= last_;
      }
    }
  }

  const Sentence& s_;
  int token_;
  int last_;
  bool space_next_ = false;
  std::string_view segment_;
};

}  // namespace

void Sentence::ComputeTreeInfo() {
  const int n = size();
  children.assign(n, {});
  subtree_left.assign(n, 0);
  subtree_right.assign(n, 0);
  depth.assign(n, 0);
  root = -1;
  for (int i = 0; i < n; ++i) {
    int h = tokens[i].head;
    if (h < 0) {
      root = i;
    } else {
      KOKO_CHECK(h < n);
      children[h].push_back(i);
    }
  }
  if (n == 0) return;
  KOKO_CHECK(root >= 0);

  // Depth-first traversal computing depth and subtree extents.
  // Iterative to avoid recursion limits on degenerate chains.
  std::vector<std::pair<int, int>> stack;  // (node, child cursor)
  for (int i = 0; i < n; ++i) {
    subtree_left[i] = i;
    subtree_right[i] = i;
  }
  depth[root] = 0;
  stack.emplace_back(root, 0);
  while (!stack.empty()) {
    auto& [node, cursor] = stack.back();
    if (cursor < static_cast<int>(children[node].size())) {
      int child = children[node][cursor++];
      depth[child] = depth[node] + 1;
      stack.emplace_back(child, 0);
    } else {
      stack.pop_back();
      if (!stack.empty()) {
        int parent = stack.back().first;
        subtree_left[parent] = std::min(subtree_left[parent], subtree_left[node]);
        subtree_right[parent] = std::max(subtree_right[parent], subtree_right[node]);
      }
    }
  }
}

std::string Sentence::SpanText(int begin, int end) const {
  std::string out;
  AppendSpanText(begin, end, &out);
  return out;
}

void Sentence::AppendSpanText(int begin, int end, std::string* out) const {
  for (int i = begin; i <= end && i < size(); ++i) {
    if (i > begin) *out += ' ';
    *out += tokens[i].text;
  }
}

uint64_t Sentence::SpanTextHash(int begin, int end) const {
  uint64_t h = Fnv1a64("");
  for (int i = begin; i <= end && i < size(); ++i) {
    if (i > begin) h = Fnv1a64(" ", h);
    h = Fnv1a64(tokens[i].text, h);
  }
  return h;
}

bool Sentence::SpanTextEquals(int begin, int end, const Sentence& other,
                              int other_begin, int other_end) const {
  SpanChars a(*this, begin, end);
  SpanChars b(other, other_begin, other_end);
  while (!a.segment().empty() && !b.segment().empty()) {
    const size_t n = std::min(a.segment().size(), b.segment().size());
    if (std::memcmp(a.segment().data(), b.segment().data(), n) != 0) {
      return false;
    }
    a.Consume(n);
    b.Consume(n);
  }
  return a.segment().empty() && b.segment().empty();
}

bool Sentence::IsAncestor(int ancestor, int node) const {
  int cur = tokens[node].head;
  while (cur >= 0) {
    if (cur == ancestor) return true;
    cur = tokens[cur].head;
  }
  return false;
}

void AnnotatedCorpus::RebuildRefs() {
  refs.clear();
  for (uint32_t d = 0; d < docs.size(); ++d) {
    for (uint32_t s = 0; s < docs[d].sentences.size(); ++s) {
      refs.push_back(SentenceRef{d, s});
    }
  }
}

size_t AnnotatedCorpus::NumTokens() const {
  size_t total = 0;
  for (const auto& doc : docs) {
    for (const auto& sent : doc.sentences) total += sent.tokens.size();
  }
  return total;
}

}  // namespace koko
