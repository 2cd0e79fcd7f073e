#ifndef KOKO_INDEX_PATH_LOOKUP_H_
#define KOKO_INDEX_PATH_LOOKUP_H_

#include <cstdint>
#include <vector>

#include "index/koko_index.h"
#include "index/path.h"
#include "index/posting.h"
#include "index/sid_ops.h"

namespace koko {

/// \brief Example 4.2's decomposition of one root-anchored path: which
/// hierarchy indices constrain it and which steps name a word.
///
/// The one decomposition behind KokoPathLookup, KokoPathSidLookup and
/// EstimatePathSids, so a plan's view of a path always matches how the
/// path executes.
struct PathDecomposition {
  bool has_pl = false;
  bool has_pos = false;
  /// Indices of the steps with a word constraint, in path order.
  std::vector<int> word_steps;

  /// No index can constrain the path (empty or all-wildcard): it prunes
  /// nothing.
  bool unconstrained() const {
    return !has_pl && !has_pos && word_steps.empty();
  }
  /// One hierarchy trie answers the path alone: no word, and not both a
  /// parse-label and a POS constraint.
  bool single_trie() const {
    return word_steps.empty() && !(has_pl && has_pos);
  }
};

PathDecomposition DecomposePath(const PathQuery& path);

/// Result of a decomposed-path lookup against the KOKO multi-index.
///
/// The posting list is *complete* (every true binding of the path's last
/// step appears) but may be unsound (§4.2.2 Discussion) — callers must
/// validate. When no index could constrain the path (all-wildcard), the
/// result is flagged `unconstrained` instead.
struct PathLookupResult {
  bool unconstrained = false;
  /// Candidate quintuples. When `exact_last`, they refer to the path's
  /// last step; otherwise they refer to the last *word* on the path (an
  /// ancestor of the actual target), usable for sentence pruning only.
  PostingList postings;
  bool exact_last = true;
};

/// \brief Decompose-and-join lookup of one root-anchored path (§4.2).
///
/// The path is decomposed into a parse-label path, a POS-tag path, and a
/// word path (Example 4.2). The PL/POS hierarchy indices are consulted
/// (results P1, P2), the word index is consulted for each word with
/// ancestor-descendant joins whose depth deltas are derived from the axes
/// between consecutive words (Example 4.4), and the three results are
/// joined on token identity / ancestorship exactly as §4.2.2 describes.
///
/// `sid_filter`, when non-null, restricts the answer to its sentences:
/// every fetched posting list is restricted to it before joining. The
/// joins never cross sentences, so the result is exactly the unfiltered
/// answer's postings whose sid is in the filter — a filter that is a
/// superset of the answer's sids leaves it unchanged.
PathLookupResult KokoPathLookup(const KokoIndex& index, const PathQuery& path,
                                const SidList* sid_filter = nullptr);

/// Sid projection of a decomposed-path lookup — what DPLI (Algorithm 1)
/// consumes for sentence pruning.
struct PathSidLookupResult {
  bool unconstrained = false;
  SidList sids;
};

/// \brief Columnar variant of KokoPathLookup for candidate pruning.
///
/// Produces exactly the sorted set `{q.sid : q in KokoPathLookup(path)}`
/// intersected with `*filter` when a filter is given — DPLI (Algorithm 1)
/// passes its running candidate set, so a later atom only ever looks at
/// sentences that can still match:
///
///  * A PL-only (or POS-only) path never builds quintuples: it unions the
///    matched trie nodes' precomputed sid lists, or with a filter
///    intersects each node's list with the filter and unions the hits.
///  * A cross-index path (or one with words) runs the §4.2.2 quintuple
///    joins with every posting fetch restricted to the filter narrowed by
///    each word's stored sid list (the sid semi-join), then projects the
///    sid-sorted result with one linear dedup scan. No PL/POS trie-union
///    projection is ever built as a filter. Without a filter and without
///    words the joins run unfiltered.
///
/// An absent word or an empty filter proves the answer empty before any
/// posting is fetched.
PathSidLookupResult KokoPathSidLookup(const KokoIndex& index,
                                      const PathQuery& path,
                                      const SidList* filter);

/// Size estimate of KokoPathSidLookup(path) from stored list lengths alone
/// (no posting decoded) — the planner's path selectivity input.
struct PathSidEstimate {
  uint64_t sids = 0;
  /// True when the estimate is the answer's size (an absent word proves it
  /// empty); otherwise it is an upper bound.
  bool exact = false;
};

/// A single-trie path is bounded by the sum of its matched trie nodes'
/// list lengths. A cross-index path's sids lie inside every consulted
/// index's projection, so the smallest projection bounds it. An
/// unconstrained path estimates 0 and is never planned.
PathSidEstimate EstimatePathSids(const KokoIndex& index,
                                 const PathQuery& path);

/// Extracts the parse-label / POS-tag projection of `path` (non-matching
/// constraints become wildcards).
PathQuery ProjectParseLabelPath(const PathQuery& path);
PathQuery ProjectPosPath(const PathQuery& path);

}  // namespace koko

#endif  // KOKO_INDEX_PATH_LOOKUP_H_
