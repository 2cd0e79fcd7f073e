#include "koko/engine.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

#include "index/sid_ops.h"
#include "koko/parser.h"
#include "regex/regex.h"
#include "util/hash.h"
#include "util/logging.h"

namespace koko {

namespace {

// A variable binding within one sentence: the token span [begin, end]
// (end < begin encodes an empty span) plus the tree node for node variables.
struct Binding {
  int begin = 0;
  int end = -1;
  int node = -1;

  bool empty_span() const { return end < begin; }
  int length() const { return end - begin + 1; }
};

// One tracked value of a pending row: a token span of the row's sentence
// and the hash of its text (Sentence::SpanTextHash).
struct RowSpan {
  int begin;
  int end;
  uint64_t hash;
};

// Per-sentence row dedup: an open-addressing table of pending rows keyed by
// the hash of their span texts. Reset() empties it for the next sentence
// and keeps its capacity.
class RowDedup {
 public:
  void Reset() {
    for (size_t i : used_) slots_[i].row = kEmpty;
    used_.clear();
  }

  // Adds `row` unless a present row with the same hash satisfies
  // `equal(present_row)`; returns whether it was added.
  template <typename Equal>
  bool Insert(uint64_t hash, size_t row, const Equal& equal) {
    if (2 * (used_.size() + 1) > slots_.size()) Grow();
    for (size_t i = SlotOf(hash);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i].row == kEmpty) {
        slots_[i] = {hash, row};
        used_.push_back(i);
        return true;
      }
      if (slots_[i].hash == hash && equal(slots_[i].row)) return false;
    }
  }

 private:
  static constexpr size_t kEmpty = SIZE_MAX;
  struct Slot {
    uint64_t hash = 0;
    size_t row = kEmpty;
  };

  size_t SlotOf(uint64_t hash) const {
    return static_cast<size_t>(Mix64(hash)) & (slots_.size() - 1);
  }

  void Grow() {
    std::vector<Slot> present;
    present.reserve(used_.size());
    for (size_t i : used_) present.push_back(slots_[i]);
    slots_.assign(std::max<size_t>(16, 2 * slots_.size()), Slot{});
    used_.clear();
    for (const Slot& slot : present) {
      size_t i = SlotOf(slot.hash);
      while (slots_[i].row != kEmpty) i = (i + 1) & (slots_.size() - 1);
      slots_[i] = slot;
      used_.push_back(i);
    }
  }

  std::vector<Slot> slots_;  // size is zero or a power of two
  std::vector<size_t> used_;
};

// Aggregate memo key: a (doc, slot) pair and the text of one representative
// span, compared in place. Slot ci < #satisfying is satisfying clause ci's
// score; #satisfying + j is excluding condition j's decision.
struct MemoKey {
  uint32_t doc;
  uint32_t slot;
  const Sentence* sentence;
  RowSpan span;
};

struct MemoHash {
  size_t operator()(const MemoKey& k) const {
    return static_cast<size_t>(HashCombine(
        Mix64((static_cast<uint64_t>(k.doc) << 32) | k.slot), k.span.hash));
  }
};

struct MemoEqual {
  bool operator()(const MemoKey& a, const MemoKey& b) const {
    return a.doc == b.doc && a.slot == b.slot && a.span.hash == b.span.hash &&
           a.sentence->SpanTextEquals(a.span.begin, a.span.end, *b.sentence,
                                      b.span.begin, b.span.end);
  }
};

// ---- Per-sentence evaluation ------------------------------------------------

class SentenceEvaluator {
 public:
  using Emit = std::function<bool(const std::vector<Binding>&)>;

  // One evaluator serves every candidate sentence of a query, so its
  // buffers keep their capacity. `elastic_regex[v]` is elastic variable v's
  // compiled regex (null when it has none or its pattern does not compile);
  // `path_regex[v]` holds node variable v's compiled step patterns (see
  // MatchPathInSentence). `emit` receives every assignment and returns false
  // to stop the enumeration.
  SentenceEvaluator(const CompiledQuery& cq, const EngineOptions& opts,
                    const std::vector<const Regex*>& elastic_regex,
                    const std::vector<std::vector<const Regex*>>& path_regex,
                    PhaseStats* phases, const Emit& emit)
      : cq_(cq),
        opts_(opts),
        elastic_regex_(elastic_regex),
        path_regex_(path_regex),
        phases_(phases),
        emit_(emit),
        domains_(cq.vars.size()) {}

  // Enumerates all assignments over `s`. Returns false when `emit` stopped
  // the enumeration.
  bool Run(const Sentence& s) {
    s_ = &s;
    const size_t n = cq_.vars.size();
    assign_.assign(n, Binding{});
    assigned_.assign(n, 0);
    if (!ComputeDomains()) return true;  // some variable has no bindings
    ComputeSkipPlan();
    return Step(0);
  }

 private:
  using Kind = CompiledVar::Kind;

  // Fills domains for enumerable variables; false when any is empty.
  bool ComputeDomains() {
    for (std::vector<Binding>& domain : domains_) domain.clear();
    for (size_t i = 0; i < cq_.vars.size(); ++i) {
      const CompiledVar& v = cq_.vars[i];
      switch (v.kind) {
        case Kind::kNode: {
          MatchPathInSentence(*s_, v.abs_path, path_regex_[i], &path_scratch_,
                              &path_nodes_);
          for (int t : path_nodes_) domains_[i].push_back(Binding{t, t, t});
          if (domains_[i].empty()) return false;
          break;
        }
        case Kind::kEntity: {
          for (const Entity& e : s_->entities) {
            if (v.etype && e.type != *v.etype) continue;
            domains_[i].push_back(Binding{e.begin, e.end, -1});
          }
          if (domains_[i].empty()) return false;
          break;
        }
        case Kind::kLiteral: {
          const int m = static_cast<int>(v.literal.size());
          for (int pos = 0; pos + m <= s_->size(); ++pos) {
            if (LiteralAt(v.literal, pos)) {
              domains_[i].push_back(Binding{pos, pos + m - 1, -1});
            }
          }
          if (domains_[i].empty()) return false;
          break;
        }
        case Kind::kElastic:
        case Kind::kSubtree:
        case Kind::kSpan:
          break;  // derived
      }
    }
    return true;
  }

  // True when the sentence's tokens from `pos` on spell `literal`.
  bool LiteralAt(const std::vector<std::string>& literal, int pos) const {
    for (size_t j = 0; j < literal.size(); ++j) {
      if (s_->tokens[static_cast<size_t>(pos) + j].text != literal[j]) {
        return false;
      }
    }
    return true;
  }

  // Algorithm 2: per horizontal condition, greedily mark the costliest
  // variables as skipped (derived from their neighbours' bindings) provided
  // neither horizontal neighbour is already skipped.
  void ComputeSkipPlan() {
    ScopedPhase phase(phases_, "GSP");
    skipped_.assign(cq_.vars.size(), 0);
    if (!opts_.use_gsp) return;
    const double t = static_cast<double>(s_->size());
    for (int span_idx : cq_.horizontal) {
      const std::vector<int>& atoms = cq_.vars[static_cast<size_t>(span_idx)].atoms;
      cost_.clear();
      for (size_t pos = 0; pos < atoms.size(); ++pos) {
        const CompiledVar& v = cq_.vars[static_cast<size_t>(atoms[pos])];
        double c;
        switch (v.kind) {
          case Kind::kElastic:
            c = t * (t + 1) / 2;
            break;
          case Kind::kSubtree:
            c = static_cast<double>(
                domains_[static_cast<size_t>(v.base)].size());
            break;
          case Kind::kSpan:
            c = 1;
            break;
          default:
            c = static_cast<double>(domains_[static_cast<size_t>(atoms[pos])].size());
            break;
        }
        cost_.push_back({c, static_cast<int>(pos)});
      }
      std::sort(cost_.begin(), cost_.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      in_list_.assign(atoms.size(), 0);
      for (const auto& [c, pos] : cost_) {
        bool left_ok = pos == 0 || !in_list_[static_cast<size_t>(pos - 1)];
        bool right_ok = pos + 1 >= static_cast<int>(atoms.size()) ||
                        !in_list_[static_cast<size_t>(pos + 1)];
        if (left_ok && right_ok) in_list_[static_cast<size_t>(pos)] = 1;
      }
      // Never skip everything: keep the cheapest atom enumerated.
      bool all = true;
      for (char c : in_list_) all = all && c;
      if (all && !atoms.empty()) in_list_[static_cast<size_t>(cost_.back().second)] = 0;
      for (size_t pos = 0; pos < atoms.size(); ++pos) {
        if (in_list_[pos]) skipped_[static_cast<size_t>(atoms[pos])] = 1;
      }
    }
  }

  // Checks all constraints whose variables are both assigned.
  bool ConstraintsOk() const {
    for (const CompiledConstraint& c : cq_.constraints) {
      if (!assigned_[static_cast<size_t>(c.a)] ||
          !assigned_[static_cast<size_t>(c.b)]) {
        continue;
      }
      const Binding& a = assign_[static_cast<size_t>(c.a)];
      const Binding& b = assign_[static_cast<size_t>(c.b)];
      switch (c.kind) {
        case Constraint::Kind::kIn:
          if (a.empty_span() || b.empty_span()) return false;
          if (!(a.begin >= b.begin && a.end <= b.end)) return false;
          break;
        case Constraint::Kind::kEq:
          if (!(a.begin == b.begin && a.end == b.end)) return false;
          break;
        case Constraint::Kind::kParentOf: {
          if (a.node < 0 || b.node < 0) return false;
          if (s_->tokens[b.node].head != a.node) return false;
          break;
        }
        case Constraint::Kind::kAncestorOf: {
          if (a.node < 0 || b.node < 0) return false;
          if (!s_->IsAncestor(a.node, b.node)) return false;
          break;
        }
        case Constraint::Kind::kLeftOf:
          // Empty elastic spans sit "between" their neighbours; they never
          // violate ordering.
          if (a.empty_span() || b.empty_span()) break;
          if (!(a.end < b.begin)) return false;
          break;
      }
    }
    return true;
  }

  bool Assign(size_t var, const Binding& b) {
    assign_[var] = b;
    assigned_[var] = 1;
    return ConstraintsOk();
  }
  void Unassign(size_t var) { assigned_[var] = 0; }

  // Recursive enumeration over variables in index order.
  bool Step(size_t var) {
    if (var == cq_.vars.size()) return emit_(assign_);
    const CompiledVar& v = cq_.vars[var];
    switch (v.kind) {
      case Kind::kNode:
      case Kind::kEntity:
      case Kind::kLiteral: {
        if (skipped_[var]) {
          // Derived later during span alignment.
          return Step(var + 1);
        }
        for (const Binding& b : domains_[var]) {
          if (!Assign(var, b)) {
            Unassign(var);
            continue;
          }
          if (!Step(var + 1)) return false;
          Unassign(var);
        }
        return true;
      }
      case Kind::kElastic: {
        if (skipped_[var] || opts_.use_gsp) {
          // With GSP, elastic atoms are (almost) always derived; an
          // unskipped elastic under GSP is still aligned lazily.
          return Step(var + 1);
        }
        // NOGSP: naive enumeration of every possible span.
        const int n = s_->size();
        int min_len = v.elastic.min_tokens;
        int max_len = std::min(v.elastic.max_tokens, n);
        for (int begin = 0; begin < n; ++begin) {
          for (int len = min_len; len <= max_len && begin + len <= n; ++len) {
            Binding b{begin, begin + len - 1, -1};
            if (!ElasticOk(var, b)) continue;
            if (!Assign(var, b)) {
              Unassign(var);
              continue;
            }
            if (!Step(var + 1)) return false;
            Unassign(var);
          }
        }
        return true;
      }
      case Kind::kSubtree: {
        const Binding& base = assign_[static_cast<size_t>(v.base)];
        if (!assigned_[static_cast<size_t>(v.base)] || base.node < 0) {
          return true;  // base missing: no bindings
        }
        Binding b{s_->subtree_left[base.node], s_->subtree_right[base.node],
                  base.node};
        if (!Assign(var, b)) {
          Unassign(var);
          return true;
        }
        bool cont = Step(var + 1);
        Unassign(var);
        return cont;
      }
      case Kind::kSpan:
        return AlignSpan(var);
    }
    return true;
  }

  bool ElasticOk(size_t var, const Binding& b) {
    const ElasticSpec& spec = cq_.vars[var].elastic;
    int len = b.empty_span() ? 0 : b.length();
    if (len < spec.min_tokens || len > spec.max_tokens) return false;
    if (spec.etype || spec.any_entity) {
      bool found = false;
      for (const Entity& e : s_->entities) {
        if (e.begin == b.begin && e.end == b.end &&
            (spec.any_entity || e.type == *spec.etype)) {
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    if (spec.regex) {
      // A pattern that does not compile binds nothing.
      const Regex* re = elastic_regex_[var];
      if (re == nullptr) return false;
      text_.clear();
      s_->AppendSpanText(b.begin, b.end, &text_);
      if (!re->FullMatch(text_)) return false;
    }
    return true;
  }

  // Aligns the atoms of span variable `var`: anchors (already assigned
  // atoms) fix positions; deferred runs (skipped or GSP-lazy atoms) are
  // fitted into the gaps between anchors.
  bool AlignSpan(size_t var) {
    const CompiledVar& v = cq_.vars[var];
    const std::vector<int>& atoms = v.atoms;
    return AlignFrom(var, atoms, 0, /*cursor=*/-1, /*span_begin=*/-1);
  }

  // cursor = first token position the next atom must start at (-1 while no
  // anchor has been placed yet). span_begin = begin of the whole span (-1
  // until known).
  bool AlignFrom(size_t var, const std::vector<int>& atoms, size_t pos, int cursor,
                 int span_begin) {
    if (pos == atoms.size()) {
      int span_end = cursor - 1;
      if (span_begin < 0) return true;  // nothing anchored: vacuous
      Binding b{span_begin, span_end, -1};
      if (!Assign(var, b)) {
        Unassign(var);
        return true;
      }
      bool cont = Step(var + 1);
      Unassign(var);
      return cont;
    }
    size_t atom_var = static_cast<size_t>(atoms[pos]);
    const bool deferred = !assigned_[atom_var];

    if (!deferred) {
      const Binding& b = assign_[atom_var];
      if (cursor >= 0 && b.begin != cursor) return true;  // misaligned
      int begin = b.empty_span() ? cursor : b.begin;
      if (begin < 0) begin = 0;
      int next_cursor = b.empty_span() ? (cursor < 0 ? b.begin : cursor)
                                       : b.end + 1;
      // An assigned empty-span atom (possible for derived elastics reused
      // across conditions) just passes the cursor through.
      if (cursor < 0 && !b.empty_span()) {
        return AlignFrom(var, atoms, pos + 1, b.end + 1, b.begin);
      }
      return AlignFrom(var, atoms, pos + 1, next_cursor,
                       span_begin < 0 ? begin : span_begin);
    }

    // Deferred atom: find the run of consecutive deferred atoms, then the
    // next anchor (or end of atom list).
    size_t run_end = pos;
    while (run_end < atoms.size() && !assigned_[static_cast<size_t>(atoms[run_end])]) {
      ++run_end;
    }
    // Minimal token length the deferred run [pos, run_end) must occupy:
    // literals are fixed-size, elastics contribute their min_tokens.
    int required = 0;
    for (size_t i = pos; i < run_end; ++i) {
      const CompiledVar& rv = cq_.vars[static_cast<size_t>(atoms[i])];
      if (rv.kind == Kind::kLiteral) {
        required += static_cast<int>(rv.literal.size());
      } else if (rv.kind == Kind::kElastic) {
        required += rv.elastic.min_tokens;
      } else {
        required += 1;
      }
    }
    if (run_end == atoms.size()) {
      // Trailing deferred run: occupies exactly its minimal extent after
      // the cursor (minimal-span semantics for unanchored elastics).
      if (cursor < 0) {
        // Whole condition deferred — cannot anchor; enumerate first atom.
        return EnumerateDeferred(var, atoms, pos);
      }
      if (cursor + required > s_->size()) return true;
      return FitRun(var, atoms, pos, run_end, cursor, cursor + required - 1,
                    cursor + required, span_begin);
    }
    size_t anchor_var = static_cast<size_t>(atoms[run_end]);
    const Binding& anchor = assign_[anchor_var];
    if (cursor < 0) {
      // Leading deferred run: ends right before the anchor and occupies
      // exactly its minimal extent.
      int lo = anchor.begin - required;
      if (lo < 0) return true;
      return FitRun(var, atoms, pos, run_end, lo, anchor.begin - 1,
                    anchor.begin, lo);
    }
    if (anchor.begin < cursor) return true;  // anchor behind cursor
    return FitRun(var, atoms, pos, run_end, cursor, anchor.begin - 1, anchor.begin,
                  span_begin);
  }

  // Fits deferred atoms [pos, run_end) into the token gap [lo, hi]
  // (hi < lo for an empty gap), then continues from the anchor at run_end
  // with the cursor at `resume_cursor`.
  bool FitRun(size_t var, const std::vector<int>& atoms, size_t pos, size_t run_end,
              int lo, int hi, int resume_cursor, int span_begin) {
    if (pos == run_end) {
      if (lo <= hi) return true;  // gap not fully consumed
      return AlignFrom(var, atoms, run_end, resume_cursor,
                       span_begin < 0 ? lo : span_begin);
    }
    size_t atom_var = static_cast<size_t>(atoms[pos]);
    const CompiledVar& av = cq_.vars[atom_var];
    const int gap_len = hi - lo + 1;
    switch (av.kind) {
      case Kind::kLiteral: {
        int len = static_cast<int>(av.literal.size());
        if (len > gap_len || !LiteralAt(av.literal, lo)) return true;
        Binding b{lo, lo + len - 1, -1};
        if (!Assign(atom_var, b)) {
          Unassign(atom_var);
          return true;
        }
        bool cont = FitRun(var, atoms, pos + 1, run_end, lo + len, hi,
                           resume_cursor, span_begin);
        Unassign(atom_var);
        return cont;
      }
      case Kind::kElastic: {
        // Try every feasible length (usually the remaining atoms pin it).
        int max_len = std::min(av.elastic.max_tokens, gap_len);
        for (int len = av.elastic.min_tokens; len <= max_len; ++len) {
          Binding b{lo, lo + len - 1, -1};
          if (!ElasticOk(atom_var, b)) continue;
          if (!Assign(atom_var, b)) {
            Unassign(atom_var);
            continue;
          }
          bool cont = FitRun(var, atoms, pos + 1, run_end, lo + len, hi,
                             resume_cursor, span_begin);
          Unassign(atom_var);
          if (!cont) return false;
        }
        return true;
      }
      case Kind::kNode: {
        if (gap_len < 1) return true;
        // The gap's first token must be a binding of this node variable.
        for (const Binding& b : domains_[atom_var]) {
          if (b.begin != lo || b.end != lo) continue;
          if (!Assign(atom_var, b)) {
            Unassign(atom_var);
            continue;
          }
          bool cont = FitRun(var, atoms, pos + 1, run_end, lo + 1, hi,
                             resume_cursor, span_begin);
          Unassign(atom_var);
          if (!cont) return false;
        }
        return true;
      }
      case Kind::kEntity: {
        for (const Binding& b : domains_[atom_var]) {
          if (b.begin != lo || b.end > hi) continue;
          if (!Assign(atom_var, b)) {
            Unassign(atom_var);
            continue;
          }
          bool cont = FitRun(var, atoms, pos + 1, run_end, b.end + 1, hi,
                             resume_cursor, span_begin);
          Unassign(atom_var);
          if (!cont) return false;
        }
        return true;
      }
      default:
        // Subtree/span atoms are always assigned before alignment.
        return true;
    }
  }

  // Fallback when an entire condition is deferred (single-atom elastic
  // spans): enumerate the first atom explicitly.
  bool EnumerateDeferred(size_t var, const std::vector<int>& atoms,
                         size_t pos) {
    size_t atom_var = static_cast<size_t>(atoms[pos]);
    const CompiledVar& av = cq_.vars[atom_var];
    if (av.kind != Kind::kElastic) return true;
    const int n = s_->size();
    int max_len = std::min(av.elastic.max_tokens, n);
    for (int begin = 0; begin < n; ++begin) {
      for (int len = av.elastic.min_tokens; len <= max_len && begin + len <= n;
           ++len) {
        Binding b{begin, begin + len - 1, -1};
        if (!ElasticOk(atom_var, b)) continue;
        if (!Assign(atom_var, b)) {
          Unassign(atom_var);
          continue;
        }
        bool cont = AlignFrom(var, atoms, pos, b.begin, b.begin);
        Unassign(atom_var);
        if (!cont) return false;
      }
    }
    return true;
  }

  const CompiledQuery& cq_;
  const EngineOptions& opts_;
  const std::vector<const Regex*>& elastic_regex_;
  const std::vector<std::vector<const Regex*>>& path_regex_;
  PhaseStats* phases_;
  const Emit& emit_;
  const Sentence* s_ = nullptr;
  // Per-sentence state; Run() resets it and keeps the capacity.
  std::vector<std::vector<Binding>> domains_;
  std::vector<Binding> assign_;
  std::vector<char> assigned_;
  std::vector<char> skipped_;
  std::vector<std::pair<double, int>> cost_;  // (cost, position in atoms)
  std::vector<char> in_list_;
  PathMatchScratch path_scratch_;
  std::vector<int> path_nodes_;
  std::string text_;  // an elastic span's text for its regex
};

}  // namespace

// ---- Engine ------------------------------------------------------------------

Engine::Engine(const AnnotatedCorpus* corpus, const ShardedKokoIndex* index,
               const EmbeddingModel* embeddings, const EntityRecognizer* recognizer)
    : corpus_(corpus),
      index_(index),
      embeddings_(embeddings),
      recognizer_(recognizer) {}

Result<QueryResult> Engine::ExecuteText(std::string_view query_text,
                                        const EngineOptions& options) const {
  auto query = ParseQuery(query_text);
  if (!query.ok()) return query.status();
  return Execute(*query, options);
}

Result<QueryResult> Engine::Execute(const Query& query,
                                    const EngineOptions& options) const {
  QueryResult result;
  CompiledQuery cq;
  {
    ScopedPhase phase(&result.phases, "Normalize");
    auto compiled = CompileQuery(query);
    if (!compiled.ok()) return compiled.status();
    cq = std::move(*compiled);
  }
  auto final_result = ExecuteCompiled(cq, options);
  if (!final_result.ok()) return final_result.status();
  final_result->phases.Add("Normalize", result.phases.Get("Normalize"));
  return final_result;
}

Result<QueryResult> Engine::ExecuteCompiled(const CompiledQuery& cq,
                                            const EngineOptions& options) const {
  QueryResult result;
  for (const OutputSpec& spec : cq.outputs) result.output_names.push_back(spec.var);

  // Variables whose values rows must carry: outputs + satisfying/excluding.
  std::vector<int> tracked = cq.output_vars;
  auto track = [&](const std::string& name) {
    int idx = cq.VarIndex(name);
    KOKO_CHECK(idx >= 0);
    for (int t : tracked) {
      if (t == idx) return;
    }
    tracked.push_back(idx);
  };
  for (const auto& clause : cq.satisfying) track(clause.var);
  for (const auto& cond : cq.excluding) track(cond.var);

  // ---- DPLI: prune to candidate sentences (Algorithm 1) ----
  //
  // Columnar: every prunable atom contributes one sorted sid list — served
  // from the index's precomputed projections wherever possible — and the
  // lists are intersected smallest-first with a galloping ordered merge.
  // See the DPLI phase contract in engine.h.
  std::vector<uint32_t> candidates;
  {
    ScopedPhase phase(&result.phases, "DPLI");
    // One executor (koko/planner.h) against one (shard) index. The planner
    // orders atoms by estimated selectivity; with use_planner off the same
    // plan runs in compile order and bypasses the plan cache. The candidate
    // set is identical either way — plans change cost, not results. `salt`
    // keys the plan cache per target index (the shard ordinal); shard 0's
    // cost-ordered plan is surfaced in the result.
    auto collect = [&](const KokoIndex& index, uint64_t salt) {
      std::shared_ptr<const QueryPlan> plan =
          options.use_planner
              ? GetOrBuildPlan(index, cq, PlannerOptions(), options.plan_cache,
                               salt)
              : BuildQueryPlan(index, cq, PlannerOptions(),
                               /*order_by_cost=*/false);
      PlannedCandidates planned = CollectPlannedCandidates(index, cq, *plan);
      if (salt == 0 && options.use_planner) {
        result.plan = std::move(plan);
        result.plan_actuals = planned.atom_sizes;
      }
      return planned;
    };
    if (!options.use_index) {
      candidates.resize(corpus_->NumSentences());
      for (uint32_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
    } else {
      // Per-shard DPLI: shards partition the corpus by contiguous sid
      // range, so intersection distributes over the partition and
      // appending each shard's candidates in shard order reproduces the
      // one-index candidate stream exactly. Each shard gets its own plan
      // (salt = shard ordinal): shard statistics differ, so the atom order
      // may too.
      for (size_t s = 0; s < index_->num_shards(); ++s) {
        PlannedCandidates collected = collect(index_->shard(s), s);
        if (collected.pruned) {
          std::vector<uint32_t> ids = collected.sids.TakeIds();
          candidates.insert(candidates.end(), ids.begin(), ids.end());
        } else {
          const ShardedKokoIndex::ShardRange& range = index_->shard_range(s);
          for (uint32_t sid = range.begin; sid < range.end; ++sid) {
            candidates.push_back(sid);
          }
        }
      }
    }
  }
  // The candidate stream is ascending, so its last sid bounds every
  // corpus_->refs read below: an index that does not match its corpus (or
  // a tampered image) fails the query instead of reading past the corpus.
  if (!candidates.empty() && candidates.back() >= corpus_->NumSentences()) {
    return Status::InvalidArgument(
        "index holds sid " + std::to_string(candidates.back()) +
        " but the corpus has only " +
        std::to_string(corpus_->NumSentences()) + " sentences");
  }
  // An unpruned shard contributes its whole range, so an index that stops
  // short of the corpus would silently drop the corpus tail.
  const uint32_t covered = index_->shard_range(index_->num_shards() - 1).end;
  if (covered != corpus_->NumSentences()) {
    return Status::InvalidArgument(
        "index covers " + std::to_string(covered) +
        " sentences but the corpus has " +
        std::to_string(corpus_->NumSentences()));
  }
  result.candidate_sentences = candidates.size();
  result.scanned_candidates = candidates.size();

  // ---- LoadArticle: resolve candidate documents ----
  //
  // A resident corpus is borrowed: `document` reads corpus_->docs in place
  // and LoadArticle has nothing to fetch. With a document store (the
  // paper's DBMS-backed mode) each candidate chunk's articles are
  // deserialised as the scan reaches it, so articles behind an
  // early-terminated tail never are; a full evaluation is one chunk. The
  // candidate stream ascends and a document's sentences are contiguous, so
  // doc ids ascend across chunks too and only a repeat of the last loaded
  // doc needs skipping.
  std::map<uint32_t, Document> loaded;
  auto load_docs = [&](size_t begin, size_t end) {
    ScopedPhase phase(&result.phases, "LoadArticle");
    if (store_ == nullptr) return;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t doc = corpus_->refs[candidates[i]].doc;
      if (!loaded.empty() && loaded.rbegin()->first == doc) continue;
      loaded.emplace_hint(loaded.end(), doc, store_->LoadDocument(doc));
    }
  };
  auto document = [&](uint32_t doc) -> const Document& {
    return store_ == nullptr ? corpus_->docs[doc] : loaded.at(doc);
  };

  // A pending row is a window of tracked.size() spans in `row_spans`, one
  // per tracked variable, over the row's sentence. Its text is built only
  // for an aggregate memo miss or when the row is emitted.
  struct PendingRow {
    uint32_t doc;
    uint32_t sid;
    size_t first;  // index of its first span in row_spans
    const Sentence* sentence;
  };
  std::vector<PendingRow> pending;  // the current chunk's rows
  std::vector<RowSpan> row_spans;   // their spans
  auto span_of = [&](const PendingRow& row, size_t pos) -> const RowSpan& {
    return row_spans[row.first + pos];
  };

  // Each clause's and excluding condition's position among the tracked
  // variables.
  auto tracked_pos = [&](const std::string& name) {
    const int idx = cq.VarIndex(name);
    const size_t pos = static_cast<size_t>(
        std::find(tracked.begin(), tracked.end(), idx) - tracked.begin());
    KOKO_CHECK(pos < tracked.size());
    return pos;
  };
  std::vector<size_t> satisfying_pos;
  satisfying_pos.reserve(cq.satisfying.size());
  for (const SatisfyingClause& clause : cq.satisfying) {
    satisfying_pos.push_back(tracked_pos(clause.var));
  }
  std::vector<size_t> excluding_pos;
  excluding_pos.reserve(cq.excluding.size());
  for (const SatCondition& cond : cq.excluding) {
    excluding_pos.push_back(tracked_pos(cond.var));
  }

  // ---- Aggregate machinery: satisfying / excluding over whole documents.
  // Hoisted above extraction so rows finalise per chunk.
  Aggregator::Options agg_options;
  agg_options.use_descriptors = options.use_descriptors;
  Aggregator aggregator(embeddings_, recognizer_, agg_options);
  for (const auto& set : ontology_sets_) aggregator.AddOntologySet(set);

  // Score cache: (doc, clause, value) -> score. A shared cross-query
  // cache (options.score_cache) is consulted first when present; entries
  // are keyed by clause *content* salted with this engine's scoring
  // configuration (use_descriptors, ontology sets), so a hit is
  // guaranteed to equal recomputation and queries with different options
  // can share one cache. The query-local memo below still fronts the
  // shared one to avoid re-locking stripes for values repeated within one
  // query.
  std::vector<uint64_t> clause_keys;
  if (options.score_cache != nullptr) {
    uint64_t salt = Mix64(options.use_descriptors ? 1 : 2);
    for (const auto& set : ontology_sets_) {
      // Set boundaries matter: {"good","happy"} relates the two phrases,
      // {"good"} + {"happy"} does not — the flat phrase sequence alone
      // must not collide across different partitions.
      salt = HashCombine(salt, Mix64(set.size()));
      for (const std::string& phrase : set) {
        salt = HashCombine(salt, Fnv1a64(phrase));
      }
    }
    clause_keys.reserve(cq.satisfying.size());
    for (const SatisfyingClause& clause : cq.satisfying) {
      clause_keys.push_back(
          HashCombine(salt, ScoreCache::ClauseFingerprint(clause)));
    }
  }

  // Query-local aggregate memo: every satisfying score and excluding
  // decision, keyed by (doc, slot, span text) — see MemoKey. A miss builds
  // the value text into `value_text`, which `compute` reads.
  std::unordered_map<MemoKey, double, MemoHash, MemoEqual> memo;
  std::string value_text;
  auto memoized = [&](const PendingRow& row, size_t slot, const RowSpan& span,
                      const auto& compute) {
    const MemoKey key{row.doc, static_cast<uint32_t>(slot), row.sentence, span};
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    value_text.clear();
    row.sentence->AppendSpanText(span.begin, span.end, &value_text);
    const double value = compute();
    memo.emplace(key, value);
    return value;
  };
  auto score_of = [&](const PendingRow& row, size_t clause_idx) {
    const RowSpan& span = span_of(row, satisfying_pos[clause_idx]);
    return memoized(row, clause_idx, span, [&] {
      if (options.score_cache != nullptr) {
        if (auto hit = options.score_cache->Lookup(clause_keys[clause_idx],
                                                   row.doc, value_text)) {
          return *hit;
        }
      }
      const double s = aggregator.Score(document(row.doc), value_text,
                                        cq.satisfying[clause_idx]);
      if (options.score_cache != nullptr) {
        options.score_cache->Insert(clause_keys[clause_idx], row.doc,
                                    value_text, s);
      }
      return s;
    });
  };
  auto excluded = [&](const PendingRow& row, size_t cond_idx) {
    const RowSpan& span = span_of(row, excluding_pos[cond_idx]);
    return memoized(row, cq.satisfying.size() + cond_idx, span, [&] {
             return aggregator.Excluded(document(row.doc), value_text,
                                        cq.excluding[cond_idx])
                        ? 1.0
                        : 0.0;
           }) != 0.0;
  };

  // Applies the aggregate filters to one pending row; survivors build
  // their output strings, append to result.rows and stream to the sink
  // immediately. Rows arrive here in ascending-sid order, so sink delivery
  // order always equals result.rows order.
  std::vector<double> scores;
  auto finalize_row = [&](const PendingRow& row) {
    scores.clear();
    for (size_t ci = 0; ci < cq.satisfying.size(); ++ci) {
      scores.push_back(score_of(row, ci));
      if (scores.back() < cq.satisfying[ci].threshold) return;
    }
    for (size_t j = 0; j < cq.excluding.size(); ++j) {
      if (excluded(row, j)) return;
    }
    ResultRow out;
    out.doc = row.doc;
    out.sid = row.sid;
    out.values.reserve(cq.output_vars.size());
    for (size_t k = 0; k < cq.output_vars.size(); ++k) {
      const RowSpan& span = span_of(row, k);
      out.values.push_back(row.sentence->SpanText(span.begin, span.end));
    }
    out.scores = scores;
    result.rows.push_back(std::move(out));
    if (options.sink != nullptr) (*options.sink)(result.rows.back());
  };

  // ---- GSP + extract: per-sentence evaluation ----

  // Each distinct regex — elastic-span patterns and path-step @regex
  // conditions alike — compiles once per query; a pattern that does not
  // compile stays null and binds or matches nothing.
  std::map<std::string, std::optional<Regex>> regexes;
  auto compiled_regex = [&](const std::string& pattern) -> const Regex* {
    auto [it, fresh] = regexes.try_emplace(pattern);
    if (fresh) {
      auto re = Regex::Compile(pattern);
      if (re.ok()) it->second.emplace(std::move(*re));
    }
    return it->second ? &*it->second : nullptr;
  };
  std::vector<const Regex*> elastic_regex(cq.vars.size(), nullptr);
  std::vector<std::vector<const Regex*>> path_regex(cq.vars.size());
  for (size_t v = 0; v < cq.vars.size(); ++v) {
    const CompiledVar& var = cq.vars[v];
    if (var.kind == CompiledVar::Kind::kElastic && var.elastic.regex) {
      elastic_regex[v] = compiled_regex(*var.elastic.regex);
    }
    if (var.kind != CompiledVar::Kind::kNode) continue;
    for (const PathStep& step : var.abs_path.steps) {
      const std::optional<std::string>& pattern = step.constraint.regex;
      path_regex[v].push_back(pattern ? compiled_regex(*pattern) : nullptr);
    }
  }

  // One evaluator serves every candidate. Its emit callback appends the
  // current sentence's rows, deduplicated by span text, to `pending` until
  // it holds `budget` rows, and then stops the evaluation.
  struct Current {
    uint32_t doc = 0;
    uint32_t sid = 0;
    const Sentence* sentence = nullptr;
    size_t budget = 0;
  } current;
  RowDedup dedup;
  const SentenceEvaluator::Emit emit = [&](const std::vector<Binding>& assignment) {
    const Sentence& s = *current.sentence;
    const size_t first = row_spans.size();
    uint64_t row_hash = 0;
    for (int var : tracked) {
      const Binding& b = assignment[static_cast<size_t>(var)];
      const uint64_t h = s.SpanTextHash(b.begin, b.end);
      row_spans.push_back({b.begin, b.end, h});
      row_hash = HashCombine(row_hash, h);
    }
    const bool fresh = dedup.Insert(row_hash, first, [&](size_t other) {
      for (size_t k = 0; k < tracked.size(); ++k) {
        const RowSpan& x = row_spans[first + k];
        const RowSpan& y = row_spans[other + k];
        if (x.hash != y.hash ||
            !s.SpanTextEquals(x.begin, x.end, s, y.begin, y.end)) {
          return false;
        }
      }
      return true;
    });
    if (!fresh) {
      row_spans.resize(first);
      return true;
    }
    pending.push_back({current.doc, current.sid, first, current.sentence});
    return pending.size() < current.budget;
  };
  SentenceEvaluator evaluator(cq, options, elastic_regex, path_regex,
                              &result.phases, emit);

  // ---- One extract loop: load / extract / aggregate in candidate-ordered
  // chunks, emitting rows to the sink as each chunk finalises and stopping
  // the scan once the row budget is provably satisfied (the budget counts
  // pending rows — the stream max_rows truncates — so a full budget admits
  // no further row anywhere). Chunks only pay off when a sink wants rows as
  // they appear or a finite budget with early termination may stop the scan;
  // otherwise the whole candidate stream is one chunk: one document load,
  // one extract pass, one aggregate pass. Rows are byte-identical for every
  // (max_rows, chunking): chunks partition the same ascending-sid candidate
  // stream and per-chunk budgets subtract rows already committed, so the
  // scan stops exactly where an unchunked one would.
  const bool chunked =
      options.sink != nullptr ||
      (options.early_terminate &&
       options.max_rows != std::numeric_limits<size_t>::max());
  // A streaming chunk is 32 candidates: few enough that the first rows
  // reach the sink early, enough to amortise the per-chunk phase timers.
  const size_t chunk_size =
      chunked ? 32 : std::max<size_t>(candidates.size(), 1);
  size_t committed = 0;  // pending rows produced by finished chunks
  size_t scanned = 0;    // candidates drawn before the budget closed
  bool full = false;
  size_t next = 0;
  do {
    const size_t chunk_end = std::min(candidates.size(), next + chunk_size);
    // Rows this chunk may still produce. A single candidate can contribute
    // at most budget_left rows to the truncated stream, so it also serves
    // as the per-candidate evaluation budget below.
    current.budget =
        options.max_rows > committed ? options.max_rows - committed : 0;
    load_docs(next, chunk_end);
    pending.clear();
    row_spans.clear();
    {
      ScopedPhase phase(&result.phases, "extract");
      // Rows accumulate directly into the chunk, so the budget check spans
      // sentences and stops the scan exactly there.
      for (size_t i = next; i < chunk_end; ++i) {
        scanned = i + 1;
        const SentenceRef& ref = corpus_->refs[candidates[i]];
        current.doc = ref.doc;
        current.sid = candidates[i];
        current.sentence = &document(ref.doc).sentences[ref.sent];
        dedup.Reset();
        if (!evaluator.Run(*current.sentence)) {
          full = true;
          break;
        }
      }
    }
    {
      ScopedPhase phase(&result.phases, "satisfying");
      for (const PendingRow& row : pending) finalize_row(row);
    }
    committed += pending.size();
    if (committed >= options.max_rows) full = true;
    next = chunk_end;
  } while (next < candidates.size() && !full);
  // Without early termination the run reports the full-evaluation contract
  // (every candidate counted as scanned) whatever the cut point was.
  if (options.early_terminate) {
    result.scanned_candidates = scanned;
    result.early_terminated = scanned < candidates.size();
  }
  // Freeing the deserialised articles is part of the store's LoadArticle
  // cost; left to the destructor it would belong to no phase.
  if (store_ != nullptr) {
    ScopedPhase phase(&result.phases, "LoadArticle");
    loaded.clear();
  }
  return result;
}

}  // namespace koko
