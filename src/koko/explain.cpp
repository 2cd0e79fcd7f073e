#include "koko/explain.h"

#include "util/string_util.h"

namespace koko {

std::string SatConditionToString(const SatCondition& cond) {
  const std::string text = Quote(cond.text);
  switch (cond.kind) {
    case SatCondition::Kind::kStrContains:
      return "str(" + cond.var + ") contains " + text;
    case SatCondition::Kind::kStrMentions:
      return "str(" + cond.var + ") mentions " + text;
    case SatCondition::Kind::kStrMatches:
      return "str(" + cond.var + ") matches " + text;
    case SatCondition::Kind::kFollowedBy:
      return cond.var + " " + text;
    case SatCondition::Kind::kPrecededBy:
      return text + " " + cond.var;
    case SatCondition::Kind::kNear:
      return cond.var + " near " + text;
    case SatCondition::Kind::kDescriptorRight:
      return cond.var + " [[" + text + "]]";
    case SatCondition::Kind::kDescriptorLeft:
      return "[[" + text + "]] " + cond.var;
    case SatCondition::Kind::kSimilarTo:
      return cond.var + " SimilarTo " + text;
    case SatCondition::Kind::kInDict:
      return "str(" + cond.var + ") in dict(" + text + ")";
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
  out += "value filters: " + std::to_string(result.filter_values_decided) +
         " distinct value(s) decided, " +
         std::to_string(result.filter_values_rejected) + " rejected\n";
  return out;
}

Explainer::Explainer(const Engine& engine, bool use_descriptors)
    : engine_(engine), use_descriptors_(use_descriptors) {}

ClauseExplanation Explainer::Explain(const Document& doc,
                                     const std::string& value,
                                     const SatisfyingClause& clause) const {
  const CompiledClause compiled = CompileClause(clause);
  Aggregator aggregator(engine_.embeddings_, engine_.recognizer_,
                        {.use_descriptors = use_descriptors_},
                        engine_.ontology_sets_);
  ClauseExplanation out;
  out.var = clause.var;
  out.value = value;
  out.threshold = clause.threshold;
  for (const CompiledCondition& cond : compiled.conditions) {
    ConditionExplanation ce;
    ce.condition = cond.source;
    ce.confidence = aggregator.ConditionScore(doc, value, cond);
    ce.contribution = cond.source.weight * ce.confidence;
    out.score += ce.contribution;
    out.conditions.push_back(std::move(ce));
  }
  out.passed = out.score >= clause.threshold;
  return out;
}

}  // namespace koko
