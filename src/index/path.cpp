#include "index/path.h"

#include <algorithm>
#include <span>

#include "util/string_util.h"

namespace koko {

bool NodeConstraint::Matches(const Sentence& s, int tid,
                             const Regex* compiled) const {
  const Token& tok = s.tokens[tid];
  if (dep && tok.label != *dep) return false;
  if (pos && tok.pos != *pos) return false;
  if (word && tok.text != *word) return false;
  if (etype && tok.etype != *etype) return false;
  if (any_entity && tok.etype == EntityType::kNone) return false;
  if (regex && (compiled == nullptr || !compiled->FullMatch(tok.text))) {
    return false;
  }
  return true;
}

std::string NodeConstraint::ToString() const {
  // Emits valid query syntax: the parse label (or a quoted word, or `*`)
  // as the step label, everything else as bracketed conditions.
  std::string label;
  std::vector<std::string> conds;
  if (dep) {
    label = std::string(DepLabelName(*dep));
    if (word) conds.push_back("text=" + Quote(*word));
  } else if (word && !pos && !regex && !etype && !any_entity) {
    return Quote(*word);
  } else {
    label = "*";
    if (word) conds.push_back("text=" + Quote(*word));
  }
  if (pos) conds.push_back("@pos=\"" + std::string(PosTagName(*pos)) + "\"");
  if (regex) conds.push_back("@regex=" + Quote(*regex));
  if (etype) conds.push_back("etype=\"" + std::string(EntityTypeName(*etype)) + "\"");
  if (any_entity) conds.push_back("etype=\"Entity\"");
  if (conds.empty()) return label;
  return label + "[" + Join(conds, ", ") + "]";
}

std::string PathQuery::ToString() const {
  std::string out;
  for (const PathStep& step : steps) {
    out += step.axis == PathStep::Axis::kChild ? "/" : "//";
    out += step.constraint.ToString();
  }
  return out;
}

std::vector<std::optional<Regex>> CompileStepRegexes(const PathQuery& path) {
  std::vector<std::optional<Regex>> compiled(path.steps.size());
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const std::optional<std::string>& pattern = path.steps[i].constraint.regex;
    if (!pattern) continue;
    auto re = Regex::Compile(*pattern);
    if (re.ok()) compiled[i].emplace(std::move(*re));
  }
  return compiled;
}

void MatchPathInSentence(const Sentence& s, const PathQuery& path,
                         const std::vector<std::optional<Regex>>& step_regex,
                         PathMatchScratch* scratch, std::vector<int>* out) {
  out->clear();
  if (s.size() == 0 || path.empty()) return;

  // Node sets per step; -1 denotes the virtual node above the root.
  std::vector<int>& current = scratch->current;
  std::vector<int>& next = scratch->next;
  std::vector<int>& stack = scratch->stack;
  std::vector<char>& in_set = scratch->in_set;
  current.assign(1, -1);
  in_set.resize(static_cast<size_t>(s.size()) + 1);

  auto children_of = [&](int node) -> std::span<const int> {
    if (node == -1) return {&s.root, 1};
    return s.children[static_cast<size_t>(node)];
  };

  for (size_t i = 0; i < path.steps.size(); ++i) {
    const PathStep& step = path.steps[i];
    const Regex* re = step_regex[i] ? &*step_regex[i] : nullptr;
    next.clear();
    std::fill(in_set.begin(), in_set.end(), 0);
    auto add = [&](int t) {
      if (!in_set[static_cast<size_t>(t) + 1]) {
        in_set[static_cast<size_t>(t) + 1] = 1;
        next.push_back(t);
      }
    };
    for (int node : current) {
      if (step.axis == PathStep::Axis::kChild) {
        for (int child : children_of(node)) {
          if (step.constraint.Matches(s, child, re)) add(child);
        }
      } else {
        // Descendant axis: DFS below `node`.
        std::span<const int> below = children_of(node);
        stack.assign(below.begin(), below.end());
        while (!stack.empty()) {
          int t = stack.back();
          stack.pop_back();
          if (step.constraint.Matches(s, t, re)) add(t);
          for (int child : s.children[static_cast<size_t>(t)]) {
            stack.push_back(child);
          }
        }
      }
    }
    current.swap(next);
    if (current.empty()) return;
  }
  std::sort(current.begin(), current.end());
  out->assign(current.begin(), current.end());
}

std::vector<int> MatchPathInSentence(const Sentence& s, const PathQuery& path) {
  PathMatchScratch scratch;
  std::vector<int> out;
  MatchPathInSentence(s, path, CompileStepRegexes(path), &scratch, &out);
  return out;
}

bool SentenceHasPathMatch(const Sentence& s, const PathQuery& path) {
  return !MatchPathInSentence(s, path).empty();
}

}  // namespace koko
