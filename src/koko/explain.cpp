#include "koko/explain.h"

#include "util/string_util.h"

namespace koko {

std::string SatConditionToString(const SatCondition& cond) {
  switch (cond.kind) {
    case SatCondition::Kind::kStrContains:
      return "str(" + cond.var + ") contains \"" + cond.text + "\"";
    case SatCondition::Kind::kStrMentions:
      return "str(" + cond.var + ") mentions \"" + cond.text + "\"";
    case SatCondition::Kind::kStrMatches:
      return "str(" + cond.var + ") matches \"" + cond.text + "\"";
    case SatCondition::Kind::kFollowedBy:
      return cond.var + " \"" + cond.text + "\"";
    case SatCondition::Kind::kPrecededBy:
      return "\"" + cond.text + "\" " + cond.var;
    case SatCondition::Kind::kNear:
      return cond.var + " near \"" + cond.text + "\"";
    case SatCondition::Kind::kDescriptorRight:
      return cond.var + " [[\"" + cond.text + "\"]]";
    case SatCondition::Kind::kDescriptorLeft:
      return "[[\"" + cond.text + "\"]] " + cond.var;
    case SatCondition::Kind::kSimilarTo:
      return cond.var + " SimilarTo \"" + cond.text + "\"";
    case SatCondition::Kind::kInDict:
      return "str(" + cond.var + ") in dict(\"" + cond.text + "\")";
  }
  return "?";
}

std::string ClauseExplanation::ToString() const {
  std::string out = "satisfying " + var + " for value \"" + value + "\": score " +
                    FormatDouble(score, 3) + (passed ? " >= " : " < ") +
                    FormatDouble(threshold, 3) + " -> " +
                    (passed ? "PASS" : "FAIL") + "\n";
  for (const ConditionExplanation& c : conditions) {
    out += "  " + FormatDouble(c.contribution, 3) + " = " +
           FormatDouble(c.condition.weight, 2) + " * " +
           FormatDouble(c.confidence, 3) + "  (" +
           SatConditionToString(c.condition) + ")\n";
  }
  return out;
}

namespace {

// One line per atom; with `actuals`, each executed atom also shows the
// accumulator size after its intersect and each short-circuited atom says
// it never ran.
std::string RenderPlan(const QueryPlan& plan,
                       const std::vector<uint64_t>* actuals) {
  if (!plan.pruned) {
    return "plan: unpruned (no prunable clause; full sentence scan)\n";
  }
  std::string out = "plan: " + std::to_string(plan.atoms.size()) +
                    " clause(s), ascending estimated selectivity over " +
                    std::to_string(plan.index_sentences) + " sentences\n";
  for (size_t i = 0; i < plan.atoms.size(); ++i) {
    const PlannedAtom& atom = plan.atoms[i];
    out += "  " + std::to_string(i + 1) + ". " + atom.label + "  est=" +
           std::to_string(atom.estimate) + (atom.exact ? "" : " (upper bound)");
    if (actuals != nullptr) {
      out += i < actuals->size() ? "  actual=" + std::to_string((*actuals)[i])
                                 : "  actual=skipped";
    }
    if (atom.block_backed) {
      out += "  blocks=" + std::to_string(atom.stats.blocks) +
             " avg-gap=" + FormatDouble(atom.stats.avg_gap, 1);
    }
    out += "\n";
  }
  out += "  fingerprint=" + std::to_string(plan.fingerprint) + "\n";
  return out;
}

}  // namespace

std::string ExplainPlan(const QueryPlan& plan) {
  return RenderPlan(plan, nullptr);
}

std::string ExplainExecution(const QueryResult& result) {
  std::string out = result.plan != nullptr
                        ? RenderPlan(*result.plan, &result.plan_actuals)
                        : "plan: none\n";
  out += "execution: " + std::to_string(result.candidate_sentences) +
         " candidate(s) after DPLI, " +
         std::to_string(result.scanned_candidates) + " scanned";
  if (result.early_terminated) {
    out += " -> early termination after candidate " +
           std::to_string(result.scanned_candidates) + " (" +
           std::to_string(result.candidate_sentences -
                          result.scanned_candidates) +
           " never evaluated)";
  }
  out += ", " + std::to_string(result.rows.size()) + " row(s)\n";
  return out;
}

Explainer::Explainer(const Engine& engine, bool use_descriptors)
    : aggregator_(engine.embeddings_, engine.recognizer_,
                  Aggregator::Options{.use_descriptors = use_descriptors}) {
  for (const auto& set : engine.ontology_sets_) aggregator_.AddOntologySet(set);
}

ClauseExplanation Explainer::Explain(const Document& doc,
                                     const std::string& value,
                                     const SatisfyingClause& clause) const {
  ClauseExplanation out;
  out.var = clause.var;
  out.value = value;
  out.threshold = clause.threshold;
  for (const SatCondition& cond : clause.conditions) {
    ConditionExplanation ce;
    ce.condition = cond;
    ce.confidence = aggregator_.ConditionScore(doc, value, cond);
    ce.contribution = cond.weight * ce.confidence;
    out.score += ce.contribution;
    out.conditions.push_back(std::move(ce));
  }
  out.passed = out.score >= clause.threshold;
  return out;
}

}  // namespace koko
