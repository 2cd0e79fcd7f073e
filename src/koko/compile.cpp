#include "koko/compile.h"

#include <map>

#include "text/tokenizer.h"
#include "util/string_util.h"

namespace koko {

namespace {

// Step-wise equality of constraints (order-insensitive by construction,
// since NodeConstraint stores each condition kind in a fixed field).
bool SameConstraint(const NodeConstraint& a, const NodeConstraint& b) {
  return a.dep == b.dep && a.pos == b.pos && a.word == b.word &&
         a.regex == b.regex && a.etype == b.etype && a.any_entity == b.any_entity;
}

// True when `p` is a (proper or equal) prefix of `q` with identical axes
// and conditions — the §4.2.1 dominance test.
bool IsPrefixPath(const PathQuery& p, const PathQuery& q) {
  if (p.steps.size() > q.steps.size()) return false;
  for (size_t i = 0; i < p.steps.size(); ++i) {
    if (p.steps[i].axis != q.steps[i].axis) return false;
    if (!SameConstraint(p.steps[i].constraint, q.steps[i].constraint)) return false;
  }
  return true;
}

class Compiler {
 public:
  explicit Compiler(const Query& query) : q_(query) {}

  Result<CompiledQuery> Run() {
    // 1. Materialise implicit output variables (typed entities) unless the
    //    block defines them.
    for (const OutputSpec& spec : q_.outputs) {
      bool defined_in_block = false;
      for (const VarDef& def : q_.defs) {
        if (def.name == spec.var) defined_in_block = true;
      }
      if (defined_in_block) continue;
      if (EqualsIgnoreCase(spec.type_name, "str")) {
        return Status::InvalidArgument("output variable '" + spec.var +
                                       "' of type Str must be defined in the block");
      }
      CompiledVar var;
      var.name = spec.var;
      var.kind = CompiledVar::Kind::kEntity;
      if (!EqualsIgnoreCase(spec.type_name, "entity")) {
        EntityType etype;
        if (!ParseEntityType(spec.type_name, &etype)) {
          return Status::InvalidArgument("unknown output type " + spec.type_name);
        }
        var.etype = etype;
      }
      AddVar(std::move(var));
    }

    // 2. Block definitions, in order.
    for (const VarDef& def : q_.defs) {
      KOKO_RETURN_IF_ERROR(CompileDef(def));
    }

    // 3. Explicit constraints.
    for (const Constraint& c : q_.constraints) {
      int a = Index(c.a);
      int b = Index(c.b);
      if (a < 0 || b < 0) {
        return Status::InvalidArgument("constraint references unknown variable " +
                                       (a < 0 ? c.a : c.b));
      }
      out_.constraints.push_back({c.kind, a, b});
    }

    // 4. Output column bindings.
    for (const OutputSpec& spec : q_.outputs) {
      int idx = Index(spec.var);
      if (idx < 0) {
        return Status::InvalidArgument("output variable '" + spec.var +
                                       "' is undefined");
      }
      out_.output_vars.push_back(idx);
    }
    out_.outputs = q_.outputs;

    // Satisfying/excluding clauses, with their variable references checked.
    for (const SatisfyingClause& clause : q_.satisfying) {
      if (Index(clause.var) < 0) {
        return Status::InvalidArgument("satisfying clause references unknown '" +
                                       clause.var + "'");
      }
      out_.satisfying.push_back(CompileClause(clause));
      if (out_.satisfying.back().value_only) {
        out_.value_filters.push_back(
            {Index(clause.var), out_.satisfying.size() - 1});
      }
    }
    for (const SatCondition& cond : q_.excluding) {
      if (Index(cond.var) < 0) {
        return Status::InvalidArgument("excluding clause references unknown '" +
                                       cond.var + "'");
      }
      out_.excluding.push_back(CompileCondition(cond));
      if (out_.excluding.back().value_only) {
        out_.value_filters.push_back(
            {Index(cond.var),
             out_.satisfying.size() + out_.excluding.size() - 1});
      }
    }

    ComputeDominance();
    return std::move(out_);
  }

 private:
  int Index(const std::string& name) const {
    auto it = index_.find(name);
    return it == index_.end() ? -1 : it->second;
  }

  int AddVar(CompiledVar var) {
    int idx = static_cast<int>(out_.vars.size());
    index_[var.name] = idx;
    out_.vars.push_back(std::move(var));
    return idx;
  }

  Status CompileDef(const VarDef& def) {
    switch (def.kind) {
      case VarDef::Kind::kEntity: {
        CompiledVar var;
        var.name = def.name;
        var.kind = CompiledVar::Kind::kEntity;
        var.etype = def.etype;
        AddVar(std::move(var));
        return Status::OK();
      }
      case VarDef::Kind::kNode:
        return CompileNode(def.name, def.base_var, def.path);
      case VarDef::Kind::kSpan:
        return CompileSpan(def);
    }
    return Status::Internal("unreachable");
  }

  // Expands a (possibly relative) node definition into absolute form and
  // derives the parentOf/ancestorOf constraint to its base (§4.1).
  Status CompileNode(const std::string& name, const std::string& base_var,
                     const PathQuery& path) {
    CompiledVar var;
    var.name = name;
    var.kind = CompiledVar::Kind::kNode;
    if (!base_var.empty()) {
      int base = Index(base_var);
      if (base < 0) {
        return Status::InvalidArgument("path base '" + base_var + "' is undefined");
      }
      if (out_.vars[base].kind != CompiledVar::Kind::kNode) {
        return Status::InvalidArgument("path base '" + base_var +
                                       "' is not a node variable");
      }
      var.abs_path = out_.vars[base].abs_path;
      for (const PathStep& step : path.steps) var.abs_path.steps.push_back(step);
      var.step_regex = CompileStepRegexes(var.abs_path);
      int idx = AddVar(std::move(var));
      // Derived constraint: base parentOf/ancestorOf this (depending on the
      // first relative axis and path length).
      bool direct = path.steps.size() == 1 &&
                    path.steps[0].axis == PathStep::Axis::kChild;
      out_.constraints.push_back({direct ? Constraint::Kind::kParentOf
                                         : Constraint::Kind::kAncestorOf,
                                  base, idx});
      return Status::OK();
    }
    var.abs_path = path;
    var.step_regex = CompileStepRegexes(var.abs_path);
    AddVar(std::move(var));
    return Status::OK();
  }

  // Lifts every atom of a span term into a variable and derives the leftOf
  // adjacency chain (Example 4.1's v1/v2).
  Status CompileSpan(const VarDef& def) {
    CompiledVar span;
    span.name = def.name;
    span.kind = CompiledVar::Kind::kSpan;
    std::vector<int> atom_indices;
    for (size_t i = 0; i < def.atoms.size(); ++i) {
      const SpanAtom& atom = def.atoms[i];
      switch (atom.kind) {
        case SpanAtom::Kind::kVarRef: {
          int idx = Index(atom.var);
          if (idx < 0) {
            return Status::InvalidArgument("span atom references unknown '" +
                                           atom.var + "'");
          }
          atom_indices.push_back(idx);
          break;
        }
        case SpanAtom::Kind::kSubtree: {
          int base = Index(atom.var);
          if (base < 0) {
            return Status::InvalidArgument("subtree of unknown variable '" +
                                           atom.var + "'");
          }
          CompiledVar sub;
          sub.name = "$" + def.name + "_sub" + std::to_string(i);
          sub.kind = CompiledVar::Kind::kSubtree;
          sub.base = base;
          atom_indices.push_back(AddVar(std::move(sub)));
          break;
        }
        case SpanAtom::Kind::kPath: {
          std::string anon = "$" + def.name + "_p" + std::to_string(i);
          KOKO_RETURN_IF_ERROR(CompileNode(anon, atom.var, atom.path));
          atom_indices.push_back(Index(anon));
          break;
        }
        case SpanAtom::Kind::kLiteral: {
          CompiledVar lit;
          lit.name = "$" + def.name + "_w" + std::to_string(i);
          lit.kind = CompiledVar::Kind::kLiteral;
          lit.literal = atom.tokens;
          atom_indices.push_back(AddVar(std::move(lit)));
          break;
        }
        case SpanAtom::Kind::kElastic: {
          CompiledVar el;
          el.name = "$" + def.name + "_v" + std::to_string(i);
          el.kind = CompiledVar::Kind::kElastic;
          el.elastic = atom.elastic;
          if (el.elastic.regex) {
            auto re = Regex::Compile(*el.elastic.regex);
            if (re.ok()) el.elastic_regex.emplace(std::move(*re));
          }
          atom_indices.push_back(AddVar(std::move(el)));
          break;
        }
      }
    }
    // leftOf chain between consecutive atoms.
    for (size_t i = 0; i + 1 < atom_indices.size(); ++i) {
      out_.constraints.push_back(
          {Constraint::Kind::kLeftOf, atom_indices[i], atom_indices[i + 1]});
    }
    span.atoms = atom_indices;
    int span_idx = AddVar(std::move(span));
    out_.horizontal.push_back(span_idx);
    return Status::OK();
  }

  // §4.2.1: mark each node variable with the variable whose absolute path
  // dominates it (the longest extension of its own path).
  void ComputeDominance() {
    for (size_t i = 0; i < out_.vars.size(); ++i) {
      CompiledVar& v = out_.vars[i];
      if (v.kind != CompiledVar::Kind::kNode) continue;
      int best = static_cast<int>(i);
      size_t best_len = v.abs_path.steps.size();
      for (size_t j = 0; j < out_.vars.size(); ++j) {
        const CompiledVar& w = out_.vars[j];
        if (j == i || w.kind != CompiledVar::Kind::kNode) continue;
        if (IsPrefixPath(v.abs_path, w.abs_path) &&
            w.abs_path.steps.size() > best_len) {
          best = static_cast<int>(j);
          best_len = w.abs_path.steps.size();
        }
      }
      v.dominant = best;
    }
  }

  const Query& q_;
  CompiledQuery out_;
  std::map<std::string, int> index_;
};

// True for the condition kinds whose score reads only the value's text.
bool ReadsValueOnly(SatCondition::Kind kind) {
  switch (kind) {
    case SatCondition::Kind::kStrContains:
    case SatCondition::Kind::kStrMentions:
    case SatCondition::Kind::kStrMatches:
    case SatCondition::Kind::kInDict:
    case SatCondition::Kind::kSimilarTo:
      return true;
    case SatCondition::Kind::kFollowedBy:
    case SatCondition::Kind::kPrecededBy:
    case SatCondition::Kind::kNear:
    case SatCondition::Kind::kDescriptorRight:
    case SatCondition::Kind::kDescriptorLeft:
      return false;
  }
  return false;
}

}  // namespace

CompiledCondition CompileCondition(const SatCondition& cond) {
  CompiledCondition out;
  out.source = cond;
  out.value_only = ReadsValueOnly(cond.kind);
  switch (cond.kind) {
    case SatCondition::Kind::kStrContains:
    case SatCondition::Kind::kFollowedBy:
    case SatCondition::Kind::kPrecededBy:
    case SatCondition::Kind::kNear:
      out.needle = Tokenizer::Tokenize(cond.text);
      break;
    case SatCondition::Kind::kStrMatches: {
      auto re = Regex::Compile(cond.text);
      if (re.ok()) out.pattern.emplace(std::move(*re));
      break;
    }
    case SatCondition::Kind::kInDict: {
      EntityType etype;
      if (ParseEntityType(cond.text, &etype)) out.dict_type = etype;
      break;
    }
    case SatCondition::Kind::kSimilarTo:
      out.similar_target = ToLower(cond.text);
      break;
    case SatCondition::Kind::kStrMentions:
    case SatCondition::Kind::kDescriptorRight:
    case SatCondition::Kind::kDescriptorLeft:
      break;  // read `source.text` as written
  }
  return out;
}

CompiledClause CompileClause(const SatisfyingClause& clause) {
  CompiledClause out;
  out.var = clause.var;
  out.threshold = clause.threshold;
  out.conditions.reserve(clause.conditions.size());
  out.value_only = true;
  for (const SatCondition& cond : clause.conditions) {
    out.conditions.push_back(CompileCondition(cond));
    out.value_only = out.value_only && out.conditions.back().value_only;
  }
  return out;
}

std::vector<int> CompiledQuery::DominantPathVars() const {
  std::vector<int> result;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i].kind != CompiledVar::Kind::kNode) continue;
    // Follow dominance pointers to the fixpoint.
    int cur = static_cast<int>(i);
    while (vars[static_cast<size_t>(cur)].dominant != cur) {
      cur = vars[static_cast<size_t>(cur)].dominant;
    }
    bool present = false;
    for (int r : result) present |= (r == cur);
    if (!present) result.push_back(cur);
  }
  return result;
}

Result<CompiledQuery> CompileQuery(const Query& query) {
  Compiler compiler(query);
  return compiler.Run();
}

}  // namespace koko
