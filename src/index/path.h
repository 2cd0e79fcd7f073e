#ifndef KOKO_INDEX_PATH_H_
#define KOKO_INDEX_PATH_H_

#include <optional>
#include <string>
#include <vector>

#include "regex/regex.h"
#include "text/document.h"

namespace koko {

/// Constraint on one node of a path expression. A step like
/// `verb[text="ate", @pos="verb"]` sets several fields at once; a bare
/// label sets exactly one of dep/pos/word depending on how the label name
/// resolves (parse label first, then POS tag, then literal word).
struct NodeConstraint {
  std::optional<DepLabel> dep;
  std::optional<PosTag> pos;
  std::optional<std::string> word;    // exact token text
  std::optional<std::string> regex;   // regex over the token text
  std::optional<EntityType> etype;
  bool any_entity = false;            // etype = any (label "Entity")

  bool IsWildcard() const {
    return !dep && !pos && !word && !regex && !etype && !any_entity;
  }

  /// True when token `tid` of `s` satisfies every set field. `compiled` is
  /// the compiled `regex` field: null when it is unset or does not compile,
  /// and a pattern that does not compile matches nothing.
  bool Matches(const Sentence& s, int tid, const Regex* compiled) const;

  std::string ToString() const;
};

/// One step of an XPath-like path: an axis ("/" child or "//" descendant)
/// followed by a constrained label.
struct PathStep {
  enum class Axis { kChild, kDescendant };
  Axis axis = Axis::kChild;
  NodeConstraint constraint;
};

/// A root-anchored path query: /ROOT#l1#...#lm in the paper's notation.
struct PathQuery {
  std::vector<PathStep> steps;

  bool empty() const { return steps.empty(); }
  std::string ToString() const;
};

/// Frontier buffers of the path matcher. Reusing one across sentences keeps
/// their capacity, so matching allocates nothing once they have grown.
struct PathMatchScratch {
  std::vector<int> current;
  std::vector<int> next;
  std::vector<int> stack;
  std::vector<char> in_set;
};

/// Each step's compiled `@regex`, in step order: null when the step has
/// none or its pattern does not compile.
std::vector<std::optional<Regex>> CompileStepRegexes(const PathQuery& path);

/// \brief Reference (index-free) path matcher.
///
/// Fills `*out` with the ascending token ids of `s` that terminate a
/// root-to-node path matching `path`. This is the ground truth the indices
/// approximate: effectiveness experiments and DPLI validation both compare
/// against it. `step_regex` is CompileStepRegexes(path) (see
/// NodeConstraint::Matches).
void MatchPathInSentence(const Sentence& s, const PathQuery& path,
                         const std::vector<std::optional<Regex>>& step_regex,
                         PathMatchScratch* scratch, std::vector<int>* out);

/// The same, compiling the steps' patterns once per call.
std::vector<int> MatchPathInSentence(const Sentence& s, const PathQuery& path);

/// True when some token of `s` matches `path`.
bool SentenceHasPathMatch(const Sentence& s, const PathQuery& path);

}  // namespace koko

#endif  // KOKO_INDEX_PATH_H_
