#include "index/path_lookup.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "util/hash.h"

namespace koko {

namespace {

// Depth relationship between two positions on a path: the number of steps
// between them, and whether it is exact (all child axes) or a lower bound
// (some descendant axis in between).
struct DepthDelta {
  uint32_t steps = 0;
  bool exact = true;
};

DepthDelta DeltaBetween(const PathQuery& path, int from_step, int to_step) {
  // Steps (from_step, to_step] contribute; a child axis adds exactly 1,
  // a descendant axis at least 1.
  DepthDelta d;
  for (int i = from_step + 1; i <= to_step; ++i) {
    d.steps += 1;
    if (path.steps[static_cast<size_t>(i)].axis == PathStep::Axis::kDescendant) {
      d.exact = false;
    }
  }
  return d;
}

// Joins ancestor postings A with descendant postings B: keeps elements of B
// that have some ancestor in A at the required depth relationship.
PostingList JoinAncestorDescendant(const PostingList& ancestors,
                                   const PostingList& descendants,
                                   const DepthDelta& delta) {
  // Group ancestors by sentence for locality.
  std::unordered_map<uint32_t, std::vector<const Quintuple*>> by_sid;
  for (const Quintuple& a : ancestors) by_sid[a.sid].push_back(&a);
  PostingList out;
  for (const Quintuple& b : descendants) {
    auto it = by_sid.find(b.sid);
    if (it == by_sid.end()) continue;
    for (const Quintuple* a : it->second) {
      if (a->left <= b.left && a->right >= b.right) {
        bool depth_ok = delta.exact ? (b.depth == a->depth + delta.steps)
                                    : (b.depth >= a->depth + delta.steps);
        if (depth_ok) {
          out.push_back(b);
          break;
        }
      }
    }
  }
  return out;
}

// Joins two posting lists on token identity (x1 = x2 and y1 = y2).
PostingList JoinSameToken(const PostingList& a, const PostingList& b) {
  std::unordered_set<uint64_t> tokens;
  tokens.reserve(b.size());
  for (const Quintuple& q : b) {
    tokens.insert((static_cast<uint64_t>(q.sid) << 32) | q.tid);
  }
  PostingList out;
  for (const Quintuple& q : a) {
    if (tokens.count((static_cast<uint64_t>(q.sid) << 32) | q.tid) > 0) {
      out.push_back(q);
    }
  }
  return out;
}

}  // namespace

PathQuery ProjectParseLabelPath(const PathQuery& path) {
  PathQuery out;
  for (const PathStep& step : path.steps) {
    PathStep s;
    s.axis = step.axis;
    s.constraint.dep = step.constraint.dep;
    out.steps.push_back(std::move(s));
  }
  return out;
}

PathQuery ProjectPosPath(const PathQuery& path) {
  PathQuery out;
  for (const PathStep& step : path.steps) {
    PathStep s;
    s.axis = step.axis;
    s.constraint.pos = step.constraint.pos;
    out.steps.push_back(std::move(s));
  }
  return out;
}

PathDecomposition DecomposePath(const PathQuery& path) {
  PathDecomposition d;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const NodeConstraint& c = path.steps[i].constraint;
    if (c.dep) d.has_pl = true;
    if (c.pos) d.has_pos = true;
    if (c.word) d.word_steps.push_back(static_cast<int>(i));
  }
  return d;
}

PathLookupResult KokoPathLookup(const KokoIndex& index, const PathQuery& path,
                                const SidList* sid_filter) {
  PathLookupResult result;
  const PathDecomposition d = DecomposePath(path);  // Example 4.2
  if (d.unconstrained()) {
    result.unconstrained = true;
    return result;
  }
  const int last = static_cast<int>(path.steps.size()) - 1;

  // ---- P1, P2: hierarchy lookups ----
  bool have_p = false;
  PostingList p;
  if (d.has_pl) {
    p = index.LookupParseLabelPath(ProjectParseLabelPath(path), sid_filter);
    have_p = true;
    if (p.empty()) return result;  // path absent -> empty answer (§4.2.2)
  }
  if (d.has_pos) {
    PostingList p2 = index.LookupPosPath(ProjectPosPath(path), sid_filter);
    if (p2.empty()) return result;
    p = have_p ? JoinSameToken(p, p2) : std::move(p2);
    have_p = true;
    if (p.empty()) return result;
  }

  // ---- Q: word-index lookups joined along the word path (Example 4.4) ----
  bool have_q = false;
  PostingList q;
  int prev_word_step = -1;
  for (int step : d.word_steps) {
    PostingList postings = index.LookupWord(
        *path.steps[static_cast<size_t>(step)].constraint.word, sid_filter);
    if (postings.empty()) return result;
    // First word: depth constraint relative to the (virtual) root.
    if (!have_q) {
      DepthDelta from_root = DeltaBetween(path, -1, step);
      PostingList filtered;
      for (const Quintuple& quint : postings) {
        // Token depth is 0-based from the sentence root, which sits one
        // step below the virtual root: a path of k steps reaches depth k-1.
        uint32_t min_depth = from_root.steps - 1;
        bool ok = from_root.exact ? quint.depth == min_depth
                                  : quint.depth >= min_depth;
        if (ok) filtered.push_back(quint);
      }
      q = std::move(filtered);
      have_q = true;
    } else {
      q = JoinAncestorDescendant(q, postings,
                                 DeltaBetween(path, prev_word_step, step));
    }
    if (q.empty()) return result;
    prev_word_step = step;
  }

  // ---- Final join of P and Q (§4.2.2, two cases) ----
  if (have_p && have_q) {
    if (prev_word_step == last) {
      // Last element is a word: join on the same token.
      result.postings = JoinSameToken(p, q);
    } else {
      // The last word is an ancestor of the last step's tokens: keep the
      // quintuples of P that have a Q-ancestor at the right depth (§4.2.2).
      result.postings =
          JoinAncestorDescendant(q, p, DeltaBetween(path, prev_word_step, last));
    }
    result.exact_last = true;
    return result;
  }
  if (have_p) {
    result.postings = std::move(p);
    result.exact_last = true;
    return result;
  }
  // Only the word path constrained the lookup.
  result.postings = std::move(q);
  result.exact_last = (prev_word_step == last);
  return result;
}

PathSidLookupResult KokoPathSidLookup(const KokoIndex& index,
                                      const PathQuery& path,
                                      const SidList* filter) {
  PathSidLookupResult result;
  const PathDecomposition d = DecomposePath(path);
  if (d.unconstrained()) {
    result.unconstrained = true;
    return result;
  }
  std::vector<SidSetView> views;
  for (int step : d.word_steps) {
    const BlockList* sids =
        index.WordSids(*path.steps[static_cast<size_t>(step)].constraint.word);
    if (sids == nullptr) return result;  // word absent -> empty answer
    views.push_back(sids);
  }
  if (filter != nullptr && filter->empty()) return result;
  if (d.single_trie()) {
    result.sids = d.has_pl
                      ? index.PlPathSids(ProjectParseLabelPath(path), filter)
                      : index.PosPathSids(ProjectPosPath(path), filter);
    return result;
  }
  // Cross-index joins (or word-path depth filters) operate on quintuples.
  // Filter them with what is already known: the caller's filter narrowed by
  // every word's stored list, intersected in place. An empty filter proves
  // the answer empty with no quintuple materialised; without a filter and
  // without words the joins run unfiltered.
  SidList narrowed;
  const SidList* sid_filter = filter;
  if (!views.empty()) {
    if (filter != nullptr) views.push_back(filter);
    narrowed = IntersectAllViews(std::move(views));
    if (narrowed.empty()) return result;
    sid_filter = &narrowed;
  }
  PathLookupResult full = KokoPathLookup(index, path, sid_filter);
  result.sids = SidList::FromSorted(SidsOfPostings(full.postings));
  return result;
}

PathSidEstimate EstimatePathSids(const KokoIndex& index,
                                 const PathQuery& path) {
  PathSidEstimate estimate;
  const PathDecomposition d = DecomposePath(path);
  if (d.unconstrained()) return estimate;
  if (d.single_trie()) {
    estimate.sids =
        d.has_pl ? index.EstimatePlPathSids(ProjectParseLabelPath(path))
                 : index.EstimatePosPathSids(ProjectPosPath(path));
    return estimate;
  }
  uint64_t min_proj = std::numeric_limits<uint64_t>::max();
  if (d.has_pl) {
    min_proj = std::min<uint64_t>(
        min_proj, index.EstimatePlPathSids(ProjectParseLabelPath(path)));
  }
  if (d.has_pos) {
    min_proj = std::min<uint64_t>(
        min_proj, index.EstimatePosPathSids(ProjectPosPath(path)));
  }
  for (int step : d.word_steps) {
    const size_t count = index.CountWordSids(
        *path.steps[static_cast<size_t>(step)].constraint.word);
    if (count == 0) {
      estimate.exact = true;  // an absent word proves the answer empty
      return estimate;
    }
    min_proj = std::min<uint64_t>(min_proj, count);
  }
  estimate.sids = min_proj;
  return estimate;
}

}  // namespace koko
