#include "koko/planner.h"

#include <algorithm>
#include <limits>

#include "index/path_lookup.h"
#include "text/annotations.h"
#include "util/hash.h"

namespace koko {

namespace {

// Decomposition flags of one absolute path — the same predicate
// KokoPathSidLookup evaluates, reproduced at plan time so the plan's
// single-index/cross-index classification always matches execution.
struct PathShape {
  bool unconstrained = true;
  bool has_pl = false;
  bool has_pos = false;
  std::vector<const std::string*> words;  // in step order
};

PathShape ShapeOf(const PathQuery& path) {
  PathShape shape;
  if (path.empty()) return shape;
  for (const PathStep& step : path.steps) {
    if (step.constraint.dep) shape.has_pl = true;
    if (step.constraint.pos) shape.has_pos = true;
    if (step.constraint.word) shape.words.push_back(&*step.constraint.word);
  }
  shape.unconstrained = !shape.has_pl && !shape.has_pos && shape.words.empty();
  return shape;
}

std::string QuoteWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (!out.empty()) out += ' ';
    out += word;
  }
  return "\"" + out + "\"";
}

}  // namespace

uint64_t PlanFingerprint(const CompiledQuery& cq) {
  // Salted per atom kind so e.g. a literal "X" and an entity named X can
  // never collide; atoms hashed in the same order BuildQueryPlan visits.
  uint64_t h = Fnv1a64("koko-plan-v1");
  for (int dom : cq.DominantPathVars()) {
    h = HashCombine(h, Mix64(1));
    h = HashCombine(
        h, Fnv1a64(cq.vars[static_cast<size_t>(dom)].abs_path.ToString()));
  }
  for (const CompiledVar& v : cq.vars) {
    if (v.kind == CompiledVar::Kind::kEntity) {
      h = HashCombine(h, Mix64(2));
      h = HashCombine(
          h, Mix64(v.etype ? 1 + static_cast<uint64_t>(*v.etype) : 0));
    } else if (v.kind == CompiledVar::Kind::kLiteral) {
      h = HashCombine(h, Mix64(3));
      h = HashCombine(h, Mix64(v.literal.size()));
      for (const std::string& word : v.literal) {
        h = HashCombine(h, Fnv1a64(word));
      }
    }
  }
  return h;
}

std::shared_ptr<const QueryPlan> BuildQueryPlan(
    const KokoIndex& index, const CompiledQuery& cq,
    const PlannerOptions& /*options*/, bool order_by_cost) {
  auto plan = std::make_shared<QueryPlan>();
  plan->fingerprint = PlanFingerprint(cq);
  plan->index_sentences = index.stats().num_sentences;

  // ---- Classify + estimate, in compile order ----
  for (int dom : cq.DominantPathVars()) {
    const PathQuery& path = cq.vars[static_cast<size_t>(dom)].abs_path;
    PathShape shape = ShapeOf(path);
    if (shape.unconstrained) continue;  // contributes no pruning, as at exec
    PlannedAtom atom;
    atom.kind = PlannedAtom::Kind::kPath;
    atom.var = dom;
    atom.label = "path " + path.ToString();
    if (shape.words.empty() && !(shape.has_pl && shape.has_pos)) {
      // Single hierarchy index: the lookup is a trie-node sid union; its
      // size is bounded by the sum of the matched nodes' list lengths.
      atom.estimate = shape.has_pl ? index.EstimatePlPathSids(
                                         ProjectParseLabelPath(path))
                                   : index.EstimatePosPathSids(
                                         ProjectPosPath(path));
    } else {
      // Cross-index: the answer's sids lie inside every consulted index's
      // projection, so the smallest projection bounds the result. An
      // absent word proves it empty (estimate 0, exact).
      uint64_t min_proj = std::numeric_limits<uint64_t>::max();
      if (shape.has_pl) {
        min_proj = std::min<uint64_t>(
            min_proj, index.EstimatePlPathSids(ProjectParseLabelPath(path)));
      }
      if (shape.has_pos) {
        min_proj = std::min<uint64_t>(
            min_proj, index.EstimatePosPathSids(ProjectPosPath(path)));
      }
      bool word_absent = false;
      for (const std::string* word : shape.words) {
        const size_t count = index.CountWordSids(*word);
        if (count == 0) word_absent = true;
        min_proj = std::min<uint64_t>(min_proj, count);
      }
      atom.estimate = word_absent ? 0 : min_proj;
      atom.exact = word_absent;
    }
    plan->atoms.push_back(std::move(atom));
  }
  for (size_t i = 0; i < cq.vars.size(); ++i) {
    const CompiledVar& v = cq.vars[i];
    if (v.kind == CompiledVar::Kind::kEntity) {
      PlannedAtom atom;
      atom.kind = PlannedAtom::Kind::kEntity;
      atom.var = static_cast<int>(i);
      const BlockList& sids =
          v.etype ? index.EntityTypeSids(*v.etype) : index.AllEntitySids();
      atom.estimate = sids.size();
      atom.exact = true;
      atom.block_backed = true;
      atom.stats = StatsOf(sids);
      atom.label = v.etype ? "entity " + std::string(EntityTypeName(*v.etype))
                           : "entity *";
      plan->atoms.push_back(std::move(atom));
    } else if (v.kind == CompiledVar::Kind::kLiteral) {
      PlannedAtom atom;
      atom.kind = PlannedAtom::Kind::kLiteral;
      atom.var = static_cast<int>(i);
      atom.label = "literal " + QuoteWords(v.literal);
      uint64_t min_words = std::numeric_limits<uint64_t>::max();
      bool word_absent = false;
      for (const std::string& word : v.literal) {
        const size_t count = index.CountWordSids(word);
        if (count == 0) word_absent = true;
        min_words = std::min<uint64_t>(min_words, count);
      }
      atom.estimate = word_absent ? 0 : min_words;
      // A single stored word list is served verbatim (exact, compressed);
      // a multi-word conjunction decodes to at most the smallest list.
      if (v.literal.size() == 1 && !word_absent) {
        atom.exact = true;
        atom.block_backed = true;
        atom.stats = StatsOf(*index.WordSids(v.literal[0]));
      } else {
        atom.exact = word_absent;
      }
      plan->atoms.push_back(std::move(atom));
    }
  }
  plan->pruned = !plan->atoms.empty();

  // ---- Order: ascending estimated selectivity (stable, so equal
  // estimates keep compile order and plans stay deterministic) ----
  if (order_by_cost) {
    std::stable_sort(plan->atoms.begin(), plan->atoms.end(),
                     [](const PlannedAtom& a, const PlannedAtom& b) {
                       return a.estimate < b.estimate;
                     });
  }
  return plan;
}

PlannedCandidates CollectPlannedCandidates(const KokoIndex& index,
                                           const CompiledQuery& cq,
                                           const QueryPlan& plan) {
  PlannedCandidates result;
  result.pruned = plan.pruned;
  if (!plan.pruned) return result;
  result.atom_sizes.reserve(plan.atoms.size());

  // Accumulator: a stored first atom's own view, kept un-decoded (its
  // intersection with another stored list runs fully in place); after
  // that, the decoded candidate set so far, held in `acc`.
  SidList acc;
  SidSetView current;
  bool seeded = false;
  for (const PlannedAtom& atom : plan.atoms) {
    if (atom.kind == PlannedAtom::Kind::kPath) {
      // Filter with what we already have: the lookup sees the accumulator
      // (decoded once if it is still a stored list) and returns its
      // intersection with the path's sids — the next accumulator.
      if (seeded && current.blocks() != nullptr) {
        acc = current.blocks()->Decode();
        current = &acc;
      }
      PathSidLookupResult lookup = KokoPathSidLookup(
          index, cq.vars[static_cast<size_t>(atom.var)].abs_path,
          seeded ? current.list() : nullptr);
      if (lookup.unconstrained) continue;  // planner never emits these
      acc = std::move(lookup.sids);
      current = &acc;
    } else {
      SidList src;
      SidSetView view;
      const CompiledVar& v = cq.vars[static_cast<size_t>(atom.var)];
      if (atom.kind == PlannedAtom::Kind::kEntity) {
        view =
            v.etype ? &index.EntityTypeSids(*v.etype) : &index.AllEntitySids();
      } else if (v.literal.size() == 1) {
        view = index.WordSids(v.literal[0]);
        if (view.blocks() == nullptr) view = &src;  // absent -> empty
      } else {
        std::vector<SidSetView> word_lists;
        for (const std::string& word : v.literal) {
          const BlockList* sids = index.WordSids(word);
          if (sids == nullptr) {
            word_lists.clear();  // absent -> empty
            break;
          }
          word_lists.push_back(sids);
        }
        src = IntersectAllViews(std::move(word_lists));
        view = &src;
      }
      if (!seeded) {
        if (view.list() != nullptr) {
          acc = std::move(src);
          view = &acc;
        }
        current = view;
      } else {
        acc = Intersect(current, view);
        current = &acc;
      }
    }
    seeded = true;
    result.atom_sizes.push_back(current.size());
    // Short-circuit: an empty accumulator proves the (shard's) answer
    // empty — the remaining (larger) atoms are never materialised.
    if (current.empty()) return result;
  }
  // A single stored-list plan's candidate set is the list itself.
  if (current.blocks() != nullptr) acc = current.blocks()->Decode();
  result.sids = std::move(acc);
  return result;
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(uint64_t key) const {
  {
    MutexLock lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

void PlanCache::Insert(uint64_t key, std::shared_ptr<const QueryPlan> plan) {
  MutexLock lock(mu_);
  plans_.emplace(key, std::move(plan));
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  plans_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return plans_.size();
}

PlanCache::Stats PlanCache::stats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  {
    MutexLock lock(mu_);
    stats.entries = plans_.size();
  }
  return stats;
}

std::shared_ptr<const QueryPlan> GetOrBuildPlan(const KokoIndex& index,
                                                const CompiledQuery& cq,
                                                const PlannerOptions& options,
                                                PlanCache* cache,
                                                uint64_t salt) {
  if (cache == nullptr) return BuildQueryPlan(index, cq, options);
  const uint64_t key =
      HashCombine(PlanFingerprint(cq), Mix64(salt ^ 0xcbf29ce484222325ULL));
  if (auto hit = cache->Lookup(key)) return hit;
  auto plan = BuildQueryPlan(index, cq, options);
  cache->Insert(key, plan);
  return plan;
}

}  // namespace koko
