#include "koko/printer.h"

#include <array>
#include <charconv>
#include <limits>

#include "koko/explain.h"
#include "util/string_util.h"

namespace koko {

namespace {

// The shortest fixed-point form that parses back to exactly `value` (the
// query lexer reads no exponent): 0.9004 prints as "0.9004", 1 as "1".
std::string FormatNumber(double value) {
  std::array<char, 512> buf;  // fits every finite double in fixed form
  const auto result = std::to_chars(buf.data(), buf.data() + buf.size(), value,
                                    std::chars_format::fixed);
  return std::string(buf.data(), result.ptr);
}

std::string ElasticToString(const ElasticSpec& spec) {
  std::vector<std::string> conds;
  if (spec.min_tokens > 0) conds.push_back("min=" + std::to_string(spec.min_tokens));
  if (spec.max_tokens != std::numeric_limits<int>::max()) {
    conds.push_back("max=" + std::to_string(spec.max_tokens));
  }
  if (spec.regex) conds.push_back("regex=" + Quote(*spec.regex));
  if (spec.any_entity) {
    conds.push_back("etype=\"Entity\"");
  } else if (spec.etype) {
    conds.push_back("etype=\"" + std::string(EntityTypeName(*spec.etype)) + "\"");
  }
  if (conds.empty()) return "^";
  return "^[" + Join(conds, ", ") + "]";
}

std::string AtomToString(const SpanAtom& atom) {
  switch (atom.kind) {
    case SpanAtom::Kind::kVarRef:
      return atom.var;
    case SpanAtom::Kind::kSubtree:
      return atom.var + ".subtree";
    case SpanAtom::Kind::kPath:
      return atom.var + atom.path.ToString();
    case SpanAtom::Kind::kLiteral:
      return Quote(Join(atom.tokens, " "));
    case SpanAtom::Kind::kElastic:
      return ElasticToString(atom.elastic);
  }
  return "?";
}

}  // namespace

std::string VarDefToString(const VarDef& def) {
  switch (def.kind) {
    case VarDef::Kind::kEntity:
      if (def.etype) {
        return def.name + " = " + std::string(EntityTypeName(*def.etype));
      }
      return def.name + " = Entity";
    case VarDef::Kind::kNode:
      return def.name + " = " + def.base_var + def.path.ToString();
    case VarDef::Kind::kSpan: {
      std::vector<std::string> atoms;
      atoms.reserve(def.atoms.size());
      for (const SpanAtom& atom : def.atoms) atoms.push_back(AtomToString(atom));
      return def.name + " = " + Join(atoms, " + ");
    }
  }
  return "?";
}

std::string QueryToString(const Query& query) {
  std::string out = "extract ";
  std::vector<std::string> outputs;
  for (const OutputSpec& spec : query.outputs) {
    outputs.push_back(spec.var + ":" + spec.type_name);
  }
  out += Join(outputs, ", ");
  out += " from " + Quote(query.source) + " if (";
  if (!query.defs.empty()) {
    out += "\n  /ROOT:{\n";
    std::vector<std::string> defs;
    for (const VarDef& def : query.defs) {
      defs.push_back("    " + VarDefToString(def));
    }
    out += Join(defs, ",\n");
    out += "\n  }";
  }
  for (const Constraint& c : query.constraints) {
    out += " (" + c.a + ") ";
    out += c.kind == Constraint::Kind::kIn ? "in" : "eq";
    out += " (" + c.b + ")";
  }
  out += ")";
  for (const SatisfyingClause& clause : query.satisfying) {
    out += "\nsatisfying " + clause.var + "\n";
    std::vector<std::string> conds;
    for (const SatCondition& cond : clause.conditions) {
      conds.push_back("  (" + SatConditionToString(cond) + " {" +
                      FormatNumber(cond.weight) + "})");
    }
    out += Join(conds, " or\n");
    out += "\nwith threshold " + FormatNumber(clause.threshold);
  }
  if (!query.excluding.empty()) {
    out += "\nexcluding\n";
    std::vector<std::string> conds;
    for (const SatCondition& cond : query.excluding) {
      conds.push_back("  (" + SatConditionToString(cond) + ")");
    }
    out += Join(conds, " or\n");
  }
  return out;
}

}  // namespace koko
