#ifndef KOKO_KOKO_EXPLAIN_H_
#define KOKO_KOKO_EXPLAIN_H_

#include <string>
#include <vector>

#include "koko/aggregate.h"
#include "koko/ast.h"
#include "koko/engine.h"
#include "koko/planner.h"
#include "text/document.h"

namespace koko {

/// Per-condition contribution to one satisfying-clause score.
struct ConditionExplanation {
  SatCondition condition;
  double confidence = 0;  // m_i(e)
  double contribution = 0;  // w_i * m_i(e)
};

/// Why a value passed (or failed) a satisfying clause.
struct ClauseExplanation {
  std::string var;
  std::string value;
  double threshold = 0;
  double score = 0;
  bool passed = false;
  std::vector<ConditionExplanation> conditions;

  /// Human-readable rendering (one line per condition).
  std::string ToString() const;
};

/// \brief Extraction debuggability (§5: rule-based systems are
/// explainable; "users can discover the reasons that led to an
/// extraction").
///
/// Recomputes the per-condition confidence breakdown of a value against a
/// document so a user can see exactly which evidence sentences/conditions
/// produced (or blocked) an extraction. It scores as `engine` does: same
/// model, recognizer and ontology sets, so an explanation's score equals
/// the engine row's score for the same clause and `use_descriptors`.
/// The clause compiles through CompileClause, as a query's clauses do.
/// `engine` is borrowed and must outlive the Explainer.
class Explainer {
 public:
  explicit Explainer(const Engine& engine, bool use_descriptors = true);

  ClauseExplanation Explain(const Document& doc, const std::string& value,
                            const SatisfyingClause& clause) const;

 private:
  const Engine& engine_;
  bool use_descriptors_;
};

/// Renders a SatCondition back to its query syntax, strings quoted so the
/// parser reads them back; shared by the explainer and the query printer.
std::string SatConditionToString(const SatCondition& cond);

/// \brief EXPLAIN of a compiled query plan (koko/planner.h).
///
/// One line per atom in execution order: kind + label, estimated
/// selectivity (with exact/upper-bound marker) and skip-table statistics
/// for compressed atoms. Ends with the plan fingerprint.
std::string ExplainPlan(const QueryPlan& plan);

/// \brief EXPLAIN of an executed query: the plan (when one ran) with each
/// atom's `est=` next to its `actual=` accumulator size after its
/// intersect (`actual=skipped` for atoms an empty accumulator
/// short-circuited), plus the execution's pruning and early-termination
/// figures — candidates after DPLI, candidates actually scanned, and
/// whether/where streaming top-k cut the scan short — and how many
/// distinct values the value-only filters decided and rejected in this
/// query (verdicts an earlier query left in a shared ScoreCache's tables
/// are read, not counted). When
/// sharded, the plan and actuals are shard 0's.
std::string ExplainExecution(const QueryResult& result);

}  // namespace koko

#endif  // KOKO_KOKO_EXPLAIN_H_
