#include "parser/dep_parser.h"

#include <algorithm>

#include "text/lexicon.h"
#include "util/string_util.h"

namespace koko {

namespace {

bool IsNounTag(PosTag t) { return t == PosTag::kNoun || t == PosTag::kPropn; }

bool IsChunkTag(PosTag t) {
  return t == PosTag::kDet || t == PosTag::kAdj || t == PosTag::kNum || IsNounTag(t);
}

// A noun-phrase chunk [begin, end] with a designated head token.
struct Chunk {
  int begin = 0;
  int end = 0;
  int head = 0;
};

// A verb group [begin, end]; `main` is the content verb, earlier tokens are
// auxiliaries.
struct VerbGroup {
  int begin = 0;
  int end = 0;
  int main = 0;
};

// One clause: a contiguous region with (usually) one verb group.
struct Clause {
  enum class Kind { kMain, kRelative, kCoordinated, kOpenComplement };
  Kind kind = Kind::kMain;
  int begin = 0;
  int end = 0;
  int verb = -1;        // clause head token (main verb), -1 if verbless
  int attach_to = -1;   // token the clause head attaches to (per kind)
  int introducer = -1;  // rel pronoun / conjunction / "to" token, -1 if none
};

class ParserImpl {
 public:
  explicit ParserImpl(Sentence* s) : s_(*s), n_(s->size()), lex_(Lexicon::Get()) {
    lower_.reserve(n_);
    for (const Token& t : s_.tokens) lower_.push_back(ToLower(t.text));
    head_.assign(n_, -1);
    label_.assign(n_, DepLabel::kDep);
    in_chunk_.assign(n_, -1);
    attached_.assign(n_, false);
  }

  void Run() {
    if (n_ == 0) return;
    FindChunks();
    FindVerbGroups();
    SegmentClauses();
    AttachClauses();
    for (const Clause& c : clauses_) AttachWithinClause(c);
    AttachLeftovers();
    Finalize();
  }

 private:
  PosTag Pos(int i) const { return s_.tokens[i].pos; }

  void SetArc(int child, int parent, DepLabel label) {
    if (child == parent) return;
    head_[child] = parent;
    label_[child] = label;
    attached_[child] = true;
  }

  // ---- Stage 1: NP chunks -------------------------------------------------

  void FindChunks() {
    int i = 0;
    while (i < n_) {
      if (Pos(i) == PosTag::kPron && !lex_.IsRelativePronoun(lower_[i])) {
        // Pronouns are single-token chunks (subjects/objects).
        Chunk c{i, i, i};
        in_chunk_[i] = static_cast<int>(chunks_.size());
        chunks_.push_back(c);
        ++i;
        continue;
      }
      if (!IsChunkTag(Pos(i)) || (lower_[i] == "such")) {
        ++i;
        continue;
      }
      // "that"/"which" tagged DET acting as relative pronoun: skip.
      if (lex_.IsRelativePronoun(lower_[i])) {
        ++i;
        continue;
      }
      int begin = i;
      int last_noun = -1;
      while (i < n_ && IsChunkTag(Pos(i)) && !lex_.IsRelativePronoun(lower_[i])) {
        if (IsNounTag(Pos(i))) last_noun = i;
        ++i;
      }
      int end = i - 1;
      if (last_noun == -1) {
        // Determiner-or-adjective-only run: no NP here; tokens attach later.
        continue;
      }
      // Trim trailing non-noun tokens (e.g. "the delicious and" stops at
      // the conjunction anyway; adjectives after the last noun stay out).
      end = last_noun;
      Chunk c{begin, end, last_noun};
      int idx = static_cast<int>(chunks_.size());
      for (int k = begin; k <= end; ++k) in_chunk_[k] = idx;
      chunks_.push_back(c);
      i = end + 1;
    }

    // Intra-chunk arcs.
    for (const Chunk& c : chunks_) {
      for (int k = c.begin; k <= c.end; ++k) {
        if (k == c.head) continue;
        DepLabel lbl;
        switch (Pos(k)) {
          case PosTag::kDet:
            lbl = DepLabel::kDet;
            break;
          case PosTag::kAdj:
            lbl = DepLabel::kAmod;
            break;
          case PosTag::kNum:
            lbl = DepLabel::kNum;
            break;
          case PosTag::kPropn:
          case PosTag::kNoun:
            lbl = DepLabel::kNn;
            break;
          default:
            lbl = DepLabel::kDep;
            break;
        }
        SetArc(k, c.head, lbl);
      }
    }
  }

  // ---- Stage 2: verb groups ----------------------------------------------

  void FindVerbGroups() {
    int i = 0;
    while (i < n_) {
      if (Pos(i) != PosTag::kVerb) {
        ++i;
        continue;
      }
      int begin = i;
      while (i + 1 < n_ && Pos(i + 1) == PosTag::kVerb) ++i;
      // Skip over an intervening negation/adverb inside the group:
      // "was not born", "had been called".
      int probe = i + 1;
      while (probe < n_ &&
             (Pos(probe) == PosTag::kAdv || lex_.IsNegation(lower_[probe])) &&
             probe + 1 < n_ && Pos(probe + 1) == PosTag::kVerb) {
        probe += 1;
        i = probe;
        while (i + 1 < n_ && Pos(i + 1) == PosTag::kVerb) ++i;
        probe = i + 1;
      }
      VerbGroup g{begin, i, i};
      // Auxiliaries attach to the main verb.
      for (int k = begin; k < g.main; ++k) {
        if (Pos(k) == PosTag::kVerb) {
          SetArc(k, g.main, DepLabel::kAux);
        } else if (lex_.IsNegation(lower_[k])) {
          SetArc(k, g.main, DepLabel::kNeg);
        } else {
          SetArc(k, g.main, DepLabel::kAdvmod);
        }
      }
      verb_of_token_.resize(n_, -1);
      int idx = static_cast<int>(groups_.size());
      for (int k = begin; k <= i; ++k) verb_of_token_[k] = idx;
      groups_.push_back(g);
      ++i;
    }
    if (verb_of_token_.empty()) verb_of_token_.assign(n_, -1);
  }

  // ---- Stage 3: clause segmentation --------------------------------------

  // Finds the verb group whose main verb lies within [begin, end].
  int FirstGroupIn(int begin, int end) const {
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].main >= begin && groups_[g].main <= end) {
        return static_cast<int>(g);
      }
    }
    return -1;
  }

  void SegmentClauses() {
    // Boundary positions where new clauses start.
    std::vector<Clause> raw;
    Clause current;
    current.kind = Clause::Kind::kMain;
    current.begin = 0;

    auto close_at = [&](int end_pos) {
      current.end = end_pos;
      if (current.end >= current.begin) raw.push_back(current);
    };

    for (int i = 0; i < n_; ++i) {
      bool is_rel = lex_.IsRelativePronoun(lower_[i]) &&
                    (Pos(i) == PosTag::kPron || Pos(i) == PosTag::kDet) && i > 0 &&
                    HasVerbAfter(i);
      // Relative pronoun must follow a noun (possibly across a comma).
      if (is_rel) {
        int back = i - 1;
        while (back >= 0 && Pos(back) == PosTag::kPunct) --back;
        is_rel = back >= 0 && (IsNounTag(Pos(back)) || Pos(back) == PosTag::kPron);
      }
      bool is_coord = Pos(i) == PosTag::kConj && NextStartsVerbClause(i);
      bool is_open = lower_[i] == "to" && Pos(i) == PosTag::kPrt && i + 1 < n_ &&
                     Pos(i + 1) == PosTag::kVerb;
      if ((is_rel || is_coord || is_open) && i > current.begin) {
        close_at(i - 1);
        current = Clause();
        current.kind = is_rel    ? Clause::Kind::kRelative
                       : is_open ? Clause::Kind::kOpenComplement
                                 : Clause::Kind::kCoordinated;
        current.begin = i;
        current.introducer = i;
      }
    }
    close_at(n_ - 1);

    // Assign verbs; merge verbless clauses into their predecessor.
    for (Clause& c : raw) {
      int g = FirstGroupIn(c.begin, c.end);
      c.verb = g >= 0 ? groups_[g].main : -1;
    }
    for (size_t i = 0; i < raw.size(); ++i) {
      if (raw[i].verb == -1 && !clauses_.empty()) {
        clauses_.back().end = raw[i].end;
      } else if (raw[i].verb == -1 && i + 1 < raw.size()) {
        raw[i + 1].begin = raw[i].begin;
        // Keep the later clause's kind/introducer.
      } else {
        clauses_.push_back(raw[i]);
      }
    }
    if (clauses_.empty()) {
      Clause c;
      c.kind = Clause::Kind::kMain;
      c.begin = 0;
      c.end = n_ - 1;
      c.verb = -1;
      clauses_.push_back(c);
    }
    clauses_[0].kind = Clause::Kind::kMain;
  }

  bool HasVerbAfter(int i) const {
    for (int k = i + 1; k < n_ && k <= i + 6; ++k) {
      if (Pos(k) == PosTag::kVerb) return true;
      if (Pos(k) == PosTag::kPunct || Pos(k) == PosTag::kConj) return false;
    }
    return false;
  }

  // After a conjunction, does a verb group start before the next NP ends?
  // "and also ate a pie" -> yes; "china and japan" -> no.
  bool NextStartsVerbClause(int i) const {
    for (int k = i + 1; k < n_ && k <= i + 4; ++k) {
      if (Pos(k) == PosTag::kVerb) return true;
      if (Pos(k) == PosTag::kAdv || lex_.IsNegation(lower_[k])) continue;
      if (Pos(k) == PosTag::kPron) continue;  // "and she bought"
      return false;
    }
    return false;
  }

  // ---- Stage 4: attach clause heads --------------------------------------

  void AttachClauses() {
    int root_verb = clauses_[0].verb;
    for (size_t ci = 1; ci < clauses_.size(); ++ci) {
      Clause& c = clauses_[ci];
      if (c.verb == -1) continue;
      switch (c.kind) {
        case Clause::Kind::kRelative: {
          // Attach to the nearest noun left of the introducer.
          int noun = c.introducer - 1;
          while (noun >= 0 && !IsNounTag(Pos(noun))) --noun;
          if (noun >= 0) {
            SetArc(c.verb, noun, DepLabel::kRcmod);
          } else if (root_verb >= 0 && root_verb != c.verb) {
            SetArc(c.verb, root_verb, DepLabel::kCcomp);
          }
          c.attach_to = noun;
          break;
        }
        case Clause::Kind::kCoordinated: {
          // Attach to the nearest preceding main/coordinated clause's verb
          // ("and also ate" conjoins with the main "ate", not with the
          // relative clause in between — Figure 1).
          int prev = -1;
          for (int back = static_cast<int>(ci) - 1; back >= 0; --back) {
            const Clause& p = clauses_[static_cast<size_t>(back)];
            if (p.kind == Clause::Kind::kMain ||
                p.kind == Clause::Kind::kCoordinated) {
              prev = p.verb;
              break;
            }
          }
          if (prev < 0) prev = clauses_[ci - 1].verb;
          if (prev >= 0 && prev != c.verb) {
            SetArc(c.verb, prev, DepLabel::kConj);
            if (c.introducer >= 0) SetArc(c.introducer, prev, DepLabel::kCc);
          }
          c.attach_to = prev;
          break;
        }
        case Clause::Kind::kOpenComplement: {
          int prev = clauses_[ci - 1].verb;
          if (prev >= 0 && prev != c.verb) {
            SetArc(c.verb, prev, DepLabel::kXcomp);
          }
          if (c.introducer >= 0) SetArc(c.introducer, c.verb, DepLabel::kAux);
          c.attach_to = prev;
          break;
        }
        case Clause::Kind::kMain:
          break;
      }
    }
  }

  // ---- Stage 5: within-clause attachment ----------------------------------

  void AttachWithinClause(const Clause& c) {
    int verb = c.verb;
    const bool copular = verb >= 0 && lex_.IsCopula(lower_[verb]);

    // Relative-clause introducer: nsubj when the clause has no other
    // pre-verbal subject, dobj otherwise ("that she bought").
    if (c.kind == Clause::Kind::kRelative && c.introducer >= 0 && verb >= 0) {
      bool has_subject = false;
      for (int k = c.introducer + 1; k < verb; ++k) {
        if ((in_chunk_[k] >= 0 && chunks_[in_chunk_[k]].head == k) ||
            Pos(k) == PosTag::kPron) {
          has_subject = true;
          break;
        }
      }
      SetArc(c.introducer, verb, has_subject ? DepLabel::kDobj : DepLabel::kNsubj);
    }

    bool subject_seen = false;
    bool object_seen = false;
    int i = c.begin;
    while (i <= c.end) {
      if (attached_[i] && in_chunk_[i] >= 0 && chunks_[in_chunk_[i]].head != i) {
        ++i;
        continue;
      }
      PosTag pos = Pos(i);
      // NP chunk head.
      if (in_chunk_[i] >= 0 && chunks_[in_chunk_[i]].head == i) {
        const Chunk& ch = chunks_[in_chunk_[i]];
        if (!attached_[i]) AttachChunkHead(ch, c, verb, copular, &subject_seen,
                                           &object_seen);
        i = ch.end + 1;
        continue;
      }
      if (attached_[i]) {
        ++i;
        continue;
      }
      switch (pos) {
        case PosTag::kVerb:
          // The clause verb itself (or stray verb): root handled later.
          break;
        case PosTag::kAdp: {
          AttachPreposition(i, c, verb);
          break;
        }
        case PosTag::kAdv:
          if (lex_.IsNegation(lower_[i]) && verb >= 0) {
            SetArc(i, verb, DepLabel::kNeg);
          } else if (i + 1 <= c.end && Pos(i + 1) == PosTag::kAdj) {
            SetArc(i, i + 1, DepLabel::kAdvmod);
          } else if (verb >= 0) {
            SetArc(i, verb, DepLabel::kAdvmod);
          }
          break;
        case PosTag::kAdj:
          if (verb >= 0 && copular && i > verb) {
            SetArc(i, verb, DepLabel::kAcomp);
          } else if (verb >= 0 && i > verb) {
            // Post-verbal predicative adjective ("felt happy").
            SetArc(i, verb, DepLabel::kAcomp);
          } else if (verb >= 0) {
            SetArc(i, verb, DepLabel::kDep);
          }
          break;
        case PosTag::kConj:
          AttachNpConjunction(i, c, verb);
          break;
        case PosTag::kPron:
          if (verb >= 0) {
            SetArc(i, verb, i < verb ? DepLabel::kNsubj : DepLabel::kDobj);
            if (i < verb) subject_seen = true;
          }
          break;
        case PosTag::kPunct:
          // Attached in Finalize (to the sentence root).
          break;
        case PosTag::kDet:
          if (lower_[i] == "such" && i + 1 <= c.end && lower_[i + 1] == "as") {
            SetArc(i, i + 1, DepLabel::kMark);
          } else if (verb >= 0) {
            SetArc(i, verb, DepLabel::kDep);
          }
          break;
        default:
          if (verb >= 0) SetArc(i, verb, DepLabel::kDep);
          break;
      }
      ++i;
    }
  }

  void AttachChunkHead(const Chunk& ch, const Clause& /*clause*/, int verb,
                       bool copular, bool* subject_seen, bool* object_seen) {
    if (verb < 0) return;
    // Preceded by an adposition? Then this is a pobj; the preposition
    // attachment handles it. Find the governing ADP just before the chunk.
    int before = ch.begin - 1;
    if (before >= 0 && Pos(before) == PosTag::kAdp) {
      SetArc(ch.head, before, DepLabel::kPobj);
      return;
    }
    if (ch.head < verb) {
      if (!*subject_seen) {
        SetArc(ch.head, verb, DepLabel::kNsubj);
        *subject_seen = true;
      } else {
        SetArc(ch.head, verb, DepLabel::kDep);
      }
      return;
    }
    // Post-verbal.
    if (copular) {
      SetArc(ch.head, verb, DepLabel::kAttr);
      return;
    }
    if (!*object_seen) {
      SetArc(ch.head, verb, DepLabel::kDobj);
      *object_seen = true;
    } else {
      // Second bare NP: treat earlier one as iobj pattern is rare; use dep.
      SetArc(ch.head, verb, DepLabel::kDep);
    }
  }

  void AttachPreposition(int i, const Clause& c, int verb) {
    // Attach prep to the immediately preceding NP head if adjacent
    // ("cities in ..."), otherwise to the clause verb.
    int governor = -1;
    int back = i - 1;
    while (back >= c.begin && Pos(back) == PosTag::kPunct) --back;
    if (back >= 0 && in_chunk_[back] >= 0) {
      governor = chunks_[in_chunk_[back]].head;
    } else if (back >= 0 && lower_[back] == "as" && Pos(back) == PosTag::kAdp) {
      governor = head_[back] >= 0 ? head_[back] : verb;
    } else {
      governor = verb;
    }
    if (governor < 0) governor = verb;
    if (governor < 0 || governor == i) return;
    SetArc(i, governor, DepLabel::kPrep);
    // Its object: next NP chunk head after i.
    for (int k = i + 1; k <= c.end; ++k) {
      if (in_chunk_[k] >= 0 && chunks_[in_chunk_[k]].head == k) {
        if (!attached_[k]) SetArc(k, i, DepLabel::kPobj);
        break;
      }
      if (Pos(k) == PosTag::kVerb || Pos(k) == PosTag::kAdp) break;
    }
  }

  void AttachNpConjunction(int i, const Clause& c, int verb) {
    // "china and japan": cc on the left conjunct head, right head -> conj.
    int left = -1;
    for (int k = i - 1; k >= c.begin; --k) {
      if (in_chunk_[k] >= 0 && chunks_[in_chunk_[k]].head == k) {
        left = k;
        break;
      }
      if (Pos(k) == PosTag::kVerb) break;
    }
    int right = -1;
    for (int k = i + 1; k <= c.end; ++k) {
      if (in_chunk_[k] >= 0 && chunks_[in_chunk_[k]].head == k) {
        right = k;
        break;
      }
      if (Pos(k) == PosTag::kVerb) break;
    }
    if (left >= 0) {
      SetArc(i, left, DepLabel::kCc);
      if (right >= 0 && !attached_[right]) SetArc(right, left, DepLabel::kConj);
    } else if (verb >= 0) {
      SetArc(i, verb, DepLabel::kCc);
    }
  }

  // ---- Stage 6: fallbacks and finalisation --------------------------------

  void AttachLeftovers() {
    // Root selection: main clause verb, else first chunk head, else token 0.
    root_ = clauses_[0].verb;
    if (root_ == -1) {
      for (const Chunk& ch : chunks_) {
        if (head_[ch.head] == -1) {
          root_ = ch.head;
          break;
        }
      }
    }
    if (root_ == -1 && !chunks_.empty()) root_ = chunks_[0].head;
    if (root_ == -1) root_ = 0;

    for (int i = 0; i < n_; ++i) {
      if (i == root_) continue;
      if (head_[i] == -1) {
        SetArc(i, root_, Pos(i) == PosTag::kPunct ? DepLabel::kPunct : DepLabel::kDep);
      }
    }
    head_[root_] = -1;
    label_[root_] = DepLabel::kRoot;
  }

  void Finalize() {
    // Break any accidental cycles: walk up from each node; if we revisit a
    // node before reaching the root, re-attach the offender to the root.
    for (int i = 0; i < n_; ++i) {
      int slow = i;
      int steps = 0;
      int cur = i;
      while (cur != -1 && steps <= n_ + 1) {
        cur = head_[cur];
        ++steps;
      }
      (void)slow;
      if (steps > n_ + 1) {
        head_[i] = root_;
        label_[i] = DepLabel::kDep;
      }
    }
    for (int i = 0; i < n_; ++i) {
      s_.tokens[i].head = head_[i];
      s_.tokens[i].label = label_[i];
    }
    s_.ComputeTreeInfo();
  }

  Sentence& s_;
  const int n_;
  const Lexicon& lex_;
  std::vector<std::string> lower_;
  std::vector<int> head_;
  std::vector<DepLabel> label_;
  std::vector<Chunk> chunks_;
  std::vector<int> in_chunk_;     // token -> chunk index or -1
  std::vector<VerbGroup> groups_;
  std::vector<int> verb_of_token_;
  std::vector<Clause> clauses_;
  std::vector<bool> attached_;
  int root_ = -1;
};

}  // namespace

void DepParser::Parse(Sentence* sentence) {
  ParserImpl impl(sentence);
  impl.Run();
}

}  // namespace koko
