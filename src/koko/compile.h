#ifndef KOKO_KOKO_COMPILE_H_
#define KOKO_KOKO_COMPILE_H_

#include <optional>
#include <string>
#include <vector>

#include "koko/ast.h"
#include "regex/regex.h"
#include "util/status.h"

namespace koko {

/// A variable after normalisation (§4.1). Node variables carry an absolute
/// path; span-term atoms (paths, literals, elastic spans) have been lifted
/// into variables of their own so every atom of a horizontal condition is a
/// variable, as in Example 4.1's v1/v2.
struct CompiledVar {
  enum class Kind { kNode, kEntity, kSpan, kElastic, kLiteral, kSubtree };
  std::string name;
  Kind kind = Kind::kNode;

  // kNode:
  PathQuery abs_path;
  /// CompileStepRegexes(abs_path): each step's compiled `@regex`, null when
  /// the step has none or its pattern does not compile (and matches nothing).
  std::vector<std::optional<Regex>> step_regex;
  /// Index of the node variable whose path dominates this one (§4.2.1);
  /// self-index when this variable's path is itself dominant.
  int dominant = -1;

  // kEntity:
  std::optional<EntityType> etype;

  // kSpan: indices of the atom variables, in order.
  std::vector<int> atoms;

  // kElastic:
  ElasticSpec elastic;
  /// `elastic.regex` compiled; null when it is unset or does not compile
  /// (and then the span binds nothing).
  std::optional<Regex> elastic_regex;

  // kLiteral:
  std::vector<std::string> literal;

  // kSubtree: index of the base node variable.
  int base = -1;
};

/// A constraint with variable names resolved to indices.
struct CompiledConstraint {
  Constraint::Kind kind = Constraint::Kind::kIn;
  int a = -1;
  int b = -1;
};

/// A satisfying/excluding condition compiled for evaluation (§4.4). Each
/// field is derived from `source` for the kinds that read it and is empty
/// otherwise.
struct CompiledCondition {
  SatCondition source;
  /// Tokens of `source.text`: contains, followed/preceded by, near.
  std::vector<std::string> needle;
  /// The `matches` pattern; null when it does not compile (matches nothing).
  std::optional<Regex> pattern;
  /// The `in dict` entity type; null when the name is no type (matches
  /// nothing).
  std::optional<EntityType> dict_type;
  /// The lowercased `SimilarTo` target.
  std::string similar_target;
  /// True for the kinds that read only the value's text — `str(x)
  /// contains`, `mentions`, `matches`, `in dict` and `SimilarTo` — so the
  /// condition scores a value equally in every document.
  bool value_only = false;
};

/// A satisfying clause whose conditions are compiled.
struct CompiledClause {
  std::string var;
  double threshold = 0;
  std::vector<CompiledCondition> conditions;
  /// True when every condition is value_only, so the clause's score and
  /// verdict depend on the value's text alone.
  bool value_only = false;
};

/// A value-only satisfying clause or excluding condition applied to its
/// variable's bindings: a binding whose text the clause scores below its
/// threshold, or the condition scores positive, binds no row. `slot`
/// names the clause or condition as the engine's aggregate memo does:
/// `slot < satisfying.size()` is satisfying clause `slot`, otherwise it is
/// excluding condition `slot - satisfying.size()`.
struct ValueFilter {
  int var = -1;
  size_t slot = 0;
};

/// The one way a condition or clause is compiled: CompileQuery and the
/// Explainer both go through these.
CompiledCondition CompileCondition(const SatCondition& cond);
CompiledClause CompileClause(const SatisfyingClause& clause);

/// \brief A normalised, executable query (output of §4.1's Normalize step).
struct CompiledQuery {
  std::vector<OutputSpec> outputs;
  std::vector<int> output_vars;  // var index per output column
  std::vector<CompiledVar> vars;
  std::vector<CompiledConstraint> constraints;
  /// Indices of span variables — each is one horizontal condition (§4.3).
  std::vector<int> horizontal;
  std::vector<CompiledClause> satisfying;
  std::vector<CompiledCondition> excluding;
  /// One filter per value_only satisfying clause, then one per value_only
  /// excluding condition, in clause order.
  std::vector<ValueFilter> value_filters;

  int VarIndex(const std::string& name) const {
    for (size_t i = 0; i < vars.size(); ++i) {
      if (vars[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  /// Node variables whose paths are dominant (deduplicated), §4.2.1.
  std::vector<int> DominantPathVars() const;
};

/// Normalises a parsed query: resolves variable references, expands
/// relative paths to absolute form, derives parentOf/ancestorOf/leftOf
/// constraints (Example 4.1), lifts span atoms into variables, materialises
/// implicitly-defined output variables (typed entities), computes path
/// dominance, and compiles every regex and condition text evaluation reads,
/// so evaluation compiles nothing. Value-only clauses and excluding
/// conditions also become `value_filters`.
Result<CompiledQuery> CompileQuery(const Query& query);

}  // namespace koko

#endif  // KOKO_KOKO_COMPILE_H_
