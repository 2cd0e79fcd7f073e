#include "koko/planner.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string_view>

#include "index/path_lookup.h"
#include "text/annotations.h"
#include "util/hash.h"

namespace koko {

namespace {

std::string QuoteWords(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& word : words) {
    if (!out.empty()) out += ' ';
    out += word;
  }
  return "\"" + out + "\"";
}

// The one walk over a compiled query's prunable atoms, in compile order:
// every dominant path an index can constrain, then every entity and
// literal variable. `visit(atom)` receives the atom's kind and a copy of
// its content (path, etype or words); this is the only place that content
// is read from the query. PlanFingerprint hashes it (HashAtom) and
// BuildQueryPlan annotates and keeps it, so the two cannot drift apart.
template <typename Visit>
void ForEachPrunableAtom(const CompiledQuery& cq, Visit&& visit) {
  for (int dom : cq.DominantPathVars()) {
    const CompiledVar& v = cq.vars[static_cast<size_t>(dom)];
    // An unconstrained path prunes nothing, here as at execution.
    if (DecomposePath(v.abs_path).unconstrained()) continue;
    PlannedAtom atom;
    atom.kind = PlannedAtom::Kind::kPath;
    atom.path = v.abs_path;
    visit(std::move(atom));
  }
  for (const CompiledVar& v : cq.vars) {
    PlannedAtom atom;
    if (v.kind == CompiledVar::Kind::kEntity) {
      atom.kind = PlannedAtom::Kind::kEntity;
      atom.etype = v.etype;
    } else if (v.kind == CompiledVar::Kind::kLiteral) {
      atom.kind = PlannedAtom::Kind::kLiteral;
      atom.words = v.literal;
    } else {
      continue;
    }
    visit(std::move(atom));
  }
}

// 0 when unset, else 1 + the enumerator.
template <typename Enum>
uint64_t OptionalCode(const std::optional<Enum>& value) {
  return value ? 1 + static_cast<uint64_t>(*value) : 0;
}

// Length-prefixed, so adjacent strings cannot trade characters.
uint64_t HashString(uint64_t h, std::string_view text) {
  return HashCombine(HashCombine(h, Mix64(text.size())), Fnv1a64(text));
}

uint64_t HashOptionalString(uint64_t h, const std::optional<std::string>& s) {
  h = HashCombine(h, Mix64(s.has_value()));
  return s ? HashString(h, *s) : h;
}

// Folds one atom's kind and content into a fingerprint, field by field
// (never through a printed form, which need not be injective). Salted per
// kind so e.g. a literal "X" and an entity named X can never collide.
uint64_t HashAtom(uint64_t h, const PlannedAtom& atom) {
  h = HashCombine(h, Mix64(1 + static_cast<uint64_t>(atom.kind)));
  switch (atom.kind) {
    case PlannedAtom::Kind::kPath:
      h = HashCombine(h, Mix64(atom.path.steps.size()));
      for (const PathStep& step : atom.path.steps) {
        const NodeConstraint& c = step.constraint;
        h = HashCombine(h, Mix64(static_cast<uint64_t>(step.axis)));
        h = HashCombine(h, Mix64(OptionalCode(c.dep)));
        h = HashCombine(h, Mix64(OptionalCode(c.pos)));
        h = HashCombine(h, Mix64(OptionalCode(c.etype)));
        h = HashCombine(h, Mix64(c.any_entity));
        h = HashOptionalString(h, c.word);
        h = HashOptionalString(h, c.regex);
      }
      return h;
    case PlannedAtom::Kind::kEntity:
      return HashCombine(h, Mix64(OptionalCode(atom.etype)));
    case PlannedAtom::Kind::kLiteral:
      h = HashCombine(h, Mix64(atom.words.size()));
      for (const std::string& word : atom.words) h = HashString(h, word);
      return h;
  }
  return h;
}

}  // namespace

uint64_t PlanFingerprint(const CompiledQuery& cq) {
  uint64_t h = Fnv1a64("koko-plan-v1");
  ForEachPrunableAtom(cq,
                      [&](const PlannedAtom& atom) { h = HashAtom(h, atom); });
  return h;
}

std::shared_ptr<const QueryPlan> BuildQueryPlan(
    const KokoIndex& index, const CompiledQuery& cq,
    const PlannerOptions& /*options*/, bool order_by_cost) {
  auto plan = std::make_shared<QueryPlan>();
  plan->fingerprint = PlanFingerprint(cq);
  plan->index_sentences = index.stats().num_sentences;

  // ---- Estimate, in compile order ----
  ForEachPrunableAtom(cq, [&](PlannedAtom atom) {
    switch (atom.kind) {
      case PlannedAtom::Kind::kPath: {
        atom.label = "path " + atom.path.ToString();
        const PathSidEstimate estimate = EstimatePathSids(index, atom.path);
        atom.estimate = estimate.sids;
        atom.exact = estimate.exact;
        break;
      }
      case PlannedAtom::Kind::kEntity:
        atom.label = atom.etype ? "entity " +
                                      std::string(EntityTypeName(*atom.etype))
                                : "entity *";
        atom.estimate = (atom.etype ? index.EntityTypeSids(*atom.etype)
                                    : index.AllEntitySids())
                            .size();
        atom.exact = true;
        break;
      case PlannedAtom::Kind::kLiteral: {
        atom.label = "literal " + QuoteWords(atom.words);
        uint64_t min_words = std::numeric_limits<uint64_t>::max();
        bool word_absent = false;
        for (const std::string& word : atom.words) {
          const size_t count = index.CountWordSids(word);
          if (count == 0) word_absent = true;
          min_words = std::min<uint64_t>(min_words, count);
        }
        atom.estimate = word_absent ? 0 : min_words;
        // A single stored word list is served verbatim (exact); a
        // multi-word conjunction decodes to at most the smallest list.
        atom.exact = word_absent || atom.words.size() == 1;
        break;
      }
    }
    plan->atoms.push_back(std::move(atom));
  });
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
                                           const CompiledQuery& /*cq*/,
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
          index, atom.path, seeded ? current.list() : nullptr);
      if (lookup.unconstrained) continue;  // planner never emits these
      acc = std::move(lookup.sids);
      current = &acc;
    } else {
      SidList src;
      SidSetView view;
      if (atom.kind == PlannedAtom::Kind::kEntity) {
        view = atom.etype ? &index.EntityTypeSids(*atom.etype)
                          : &index.AllEntitySids();
      } else if (atom.words.size() == 1) {
        view = index.WordSids(atom.words[0]);
        if (view.blocks() == nullptr) view = &src;  // absent -> empty
      } else {
        std::vector<SidSetView> word_lists;
        for (const std::string& word : atom.words) {
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
