#include <gtest/gtest.h>

#include "koko/compile.h"
#include "koko/lexer.h"
#include "koko/parser.h"
#include "koko/printer.h"

namespace koko {
namespace {

TEST(LexerTest, BasicTokens) {
  auto tokens = LexQuery("extract x:Entity from \"a.txt\" if ()");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, QTokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "extract");
  EXPECT_EQ((*tokens)[2].kind, QTokenKind::kColon);
  EXPECT_EQ((*tokens)[5].kind, QTokenKind::kString);
  EXPECT_EQ((*tokens)[5].text, "a.txt");
  EXPECT_EQ(tokens->back().kind, QTokenKind::kEnd);
}

TEST(LexerTest, AxesAndBrackets) {
  auto tokens = LexQuery("//verb/dobj [[x]] ^ ~ {0.5}");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, QTokenKind::kSlashSlash);
  EXPECT_EQ((*tokens)[2].kind, QTokenKind::kSlash);
  EXPECT_EQ((*tokens)[4].kind, QTokenKind::kLLBracket);
  EXPECT_EQ((*tokens)[6].kind, QTokenKind::kRRBracket);
  EXPECT_EQ((*tokens)[7].kind, QTokenKind::kCaret);
  EXPECT_EQ((*tokens)[8].kind, QTokenKind::kTilde);
  EXPECT_EQ((*tokens)[10].kind, QTokenKind::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[10].number, 0.5);
}

TEST(LexerTest, UnicodeWedgeIsElastic) {
  auto tokens = LexQuery("a + ∧ + b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].kind, QTokenKind::kCaret);
}

TEST(LexerTest, StringEscapes) {
  auto tokens = LexQuery("\"a \\\"quoted\\\" b\"");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a \"quoted\" b");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(LexQuery("\"oops").ok());
}

TEST(QueryParserTest, ExampleTwoOne) {
  auto q = ParseQuery(R"(
      extract e:Entity, d:Str from input.txt if (
        /ROOT:{
          a = //verb,
          b = a/dobj,
          c = b//"delicious",
          d = (b.subtree)
        } (b) in (e)))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->outputs.size(), 2u);
  EXPECT_EQ(q->outputs[0].var, "e");
  EXPECT_EQ(q->outputs[0].type_name, "Entity");
  ASSERT_EQ(q->defs.size(), 4u);
  EXPECT_EQ(q->defs[0].kind, VarDef::Kind::kNode);
  EXPECT_EQ(q->defs[0].path.steps[0].axis, PathStep::Axis::kDescendant);
  EXPECT_EQ(*q->defs[0].path.steps[0].constraint.pos, PosTag::kVerb);
  EXPECT_EQ(q->defs[1].base_var, "a");
  EXPECT_EQ(*q->defs[1].path.steps[0].constraint.dep, DepLabel::kDobj);
  EXPECT_EQ(*q->defs[2].path.steps[0].constraint.word, "delicious");
  EXPECT_EQ(q->defs[3].kind, VarDef::Kind::kSpan);
  EXPECT_EQ(q->defs[3].atoms[0].kind, SpanAtom::Kind::kSubtree);
  ASSERT_EQ(q->constraints.size(), 1u);
  EXPECT_EQ(q->constraints[0].kind, Constraint::Kind::kIn);
}

TEST(QueryParserTest, SatisfyingClauseKinds) {
  auto q = ParseQuery(R"(
      extract x:Entity from "b" if ()
      satisfying x
        (str(x) contains "Cafe" {1}) or
        (str(x) mentions "choc" {0.5}) or
        (str(x) matches "[Ll]a" {1}) or
        (x ", a cafe" {1}) or
        ("cafes such as" x {1}) or
        (x near "coffee" {0.7}) or
        (x [["serves coffee"]] {0.5}) or
        ([["baristas of"]] x {0.4}) or
        (x SimilarTo "city" {1.0}) or
        (str(x) in dict("Location") {1})
      with threshold 0.8)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->satisfying.size(), 1u);
  const auto& conds = q->satisfying[0].conditions;
  ASSERT_EQ(conds.size(), 10u);
  EXPECT_EQ(conds[0].kind, SatCondition::Kind::kStrContains);
  EXPECT_EQ(conds[1].kind, SatCondition::Kind::kStrMentions);
  EXPECT_EQ(conds[2].kind, SatCondition::Kind::kStrMatches);
  EXPECT_EQ(conds[3].kind, SatCondition::Kind::kFollowedBy);
  EXPECT_EQ(conds[4].kind, SatCondition::Kind::kPrecededBy);
  EXPECT_EQ(conds[5].kind, SatCondition::Kind::kNear);
  EXPECT_EQ(conds[6].kind, SatCondition::Kind::kDescriptorRight);
  EXPECT_EQ(conds[7].kind, SatCondition::Kind::kDescriptorLeft);
  EXPECT_EQ(conds[8].kind, SatCondition::Kind::kSimilarTo);
  EXPECT_EQ(conds[9].kind, SatCondition::Kind::kInDict);
  EXPECT_DOUBLE_EQ(conds[1].weight, 0.5);
  EXPECT_DOUBLE_EQ(q->satisfying[0].threshold, 0.8);
}

TEST(QueryParserTest, TildeIsSimilarTo) {
  auto q = ParseQuery(R"(
      extract a:Person from w.a if ( /ROOT:{ v = verb })
      satisfying v (v ~ "born" {1}) with threshold 0.9)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->satisfying[0].conditions[0].kind, SatCondition::Kind::kSimilarTo);
  EXPECT_EQ(q->satisfying[0].conditions[0].text, "born");
}

TEST(QueryParserTest, ExcludingClause) {
  auto q = ParseQuery(R"(
      extract x:Entity from "b" if ()
      excluding (str(x) matches "[Ll]a Marzocco") or (str(x) contains "CEO"))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->excluding.size(), 2u);
  EXPECT_EQ(q->excluding[0].var, "x");
}

TEST(QueryParserTest, StepConditions) {
  auto q = ParseQuery(R"(
      extract a:Str from t if (
        /ROOT:{ a = //*[@pos="noun", etype="Person"],
                b = //verb[text="ate"] }))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& c0 = q->defs[0].path.steps[0].constraint;
  EXPECT_EQ(*c0.pos, PosTag::kNoun);
  EXPECT_EQ(*c0.etype, EntityType::kPerson);
  const auto& c1 = q->defs[1].path.steps[0].constraint;
  EXPECT_EQ(*c1.pos, PosTag::kVerb);
  EXPECT_EQ(*c1.word, "ate");
}

TEST(QueryParserTest, SpanTermWithElastics) {
  auto q = ParseQuery(R"(
      extract e:Str from t if (
        /ROOT:{ a = //verb, x = a + ^ + "pie" + ^[etype="Entity"] }))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  const auto& atoms = q->defs[1].atoms;
  ASSERT_EQ(atoms.size(), 4u);
  EXPECT_EQ(atoms[0].kind, SpanAtom::Kind::kVarRef);
  EXPECT_EQ(atoms[1].kind, SpanAtom::Kind::kElastic);
  EXPECT_EQ(atoms[2].kind, SpanAtom::Kind::kLiteral);
  EXPECT_EQ(atoms[3].kind, SpanAtom::Kind::kElastic);
  EXPECT_TRUE(atoms[3].elastic.any_entity);
}

TEST(QueryParserTest, MalformedQueriesRejected) {
  EXPECT_FALSE(ParseQuery("select * from t").ok());
  EXPECT_FALSE(ParseQuery("extract x from t if ()").ok());  // missing type
  EXPECT_FALSE(ParseQuery("extract x:Entity from t if (").ok());
  EXPECT_FALSE(
      ParseQuery("extract x:Entity from t if () satisfying x (x near) with "
                 "threshold 1")
          .ok());
}

// Strings holding `"` or `\` print escaped and numbers print in full, so
// print -> parse -> print is a fixpoint and every string field, weight and
// threshold survives it.
TEST(PrinterTest, QuotesAndBackslashesRoundTrip) {
  const std::string text = R"(
      extract x:Str from "t\"s\\" if (
        /ROOT:{ a = //"say\"/\"hi", r = //verb[@regex="[\"a]+\\d"],
                x = a + ^[regex="q\"\\w+"] + r })
      satisfying x (str(x) contains "a \"b\" \\ c" {0.5004}) or
                   (str(x) contains "d" {1}) with threshold 0.9004
      excluding (str(x) matches "\\d\""))";
  auto expect_fields = [](const Query& q) {
    EXPECT_EQ(q.source, "t\"s\\");
    ASSERT_EQ(q.defs.size(), 3u);
    ASSERT_EQ(q.defs[0].path.steps.size(), 1u);
    EXPECT_EQ(*q.defs[0].path.steps[0].constraint.word, "say\"/\"hi");
    EXPECT_EQ(*q.defs[1].path.steps[0].constraint.regex, "[\"a]+\\d");
    ASSERT_EQ(q.defs[2].atoms.size(), 3u);
    EXPECT_EQ(*q.defs[2].atoms[1].elastic.regex, "q\"\\w+");
    ASSERT_EQ(q.satisfying.size(), 1u);
    EXPECT_EQ(q.satisfying[0].conditions[0].text, "a \"b\" \\ c");
    ASSERT_EQ(q.satisfying[0].conditions.size(), 2u);
    EXPECT_EQ(q.satisfying[0].conditions[0].weight, 0.5004);
    EXPECT_EQ(q.satisfying[0].conditions[1].weight, 1.0);
    EXPECT_EQ(q.satisfying[0].threshold, 0.9004);
    ASSERT_EQ(q.excluding.size(), 1u);
    EXPECT_EQ(q.excluding[0].text, "\\d\"");
  };
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  expect_fields(*parsed);
  const std::string printed = QueryToString(*parsed);
  auto reparsed = ParseQuery(printed);
  ASSERT_TRUE(reparsed.ok()) << printed << "\n" << reparsed.status().ToString();
  expect_fields(*reparsed);
  EXPECT_EQ(QueryToString(*reparsed), printed);
}

TEST(CompileTest, ExampleFourOneNormalization) {
  auto q = ParseQuery(R"(
      extract a:Str, b:Str, c:Str from input.txt if (
        /ROOT:{
          a = Entity,
          b = //verb[text="ate"],
          c = b/dobj,
          d = c//"delicious",
          e = a + ^ + b + ^ + c
        }))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto cq = CompileQuery(*q);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  // c expands to //verb[text="ate"]/dobj.
  int c = cq->VarIndex("c");
  ASSERT_GE(c, 0);
  const auto& c_path = cq->vars[static_cast<size_t>(c)].abs_path;
  ASSERT_EQ(c_path.steps.size(), 2u);
  EXPECT_EQ(*c_path.steps[0].constraint.word, "ate");
  EXPECT_EQ(*c_path.steps[1].constraint.dep, DepLabel::kDobj);
  // d expands to //verb[text="ate"]/dobj//"delicious".
  int d = cq->VarIndex("d");
  EXPECT_EQ(cq->vars[static_cast<size_t>(d)].abs_path.steps.size(), 3u);

  // Derived constraints: b parentOf c, c ancestorOf d, and the leftOf
  // chain over e's atoms (a, v1, b, v2, c).
  int parent_of = 0, ancestor_of = 0, left_of = 0;
  for (const auto& con : cq->constraints) {
    if (con.kind == Constraint::Kind::kParentOf) ++parent_of;
    if (con.kind == Constraint::Kind::kAncestorOf) ++ancestor_of;
    if (con.kind == Constraint::Kind::kLeftOf) ++left_of;
  }
  EXPECT_EQ(parent_of, 1);
  EXPECT_EQ(ancestor_of, 1);
  EXPECT_EQ(left_of, 4);

  // Dominance: d is the only dominant path among b, c, d (§4.2.1).
  auto dominant = cq->DominantPathVars();
  ASSERT_EQ(dominant.size(), 1u);
  EXPECT_EQ(dominant[0], d);

  // Elastic atoms were lifted to variables.
  int e = cq->VarIndex("e");
  EXPECT_EQ(cq->vars[static_cast<size_t>(e)].atoms.size(), 5u);
  EXPECT_EQ(cq->horizontal.size(), 1u);
}

TEST(CompileTest, ImplicitOutputEntityVars) {
  auto q = ParseQuery("extract a:GPE, b:Date from t if ()");
  ASSERT_TRUE(q.ok());
  auto cq = CompileQuery(*q);
  ASSERT_TRUE(cq.ok());
  EXPECT_EQ(cq->vars[0].kind, CompiledVar::Kind::kEntity);
  EXPECT_EQ(*cq->vars[0].etype, EntityType::kGpe);
  EXPECT_EQ(*cq->vars[1].etype, EntityType::kDate);
}

TEST(CompileTest, UndefinedStrOutputRejected) {
  auto q = ParseQuery("extract d:Str from t if ()");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(CompileQuery(*q).ok());
}

TEST(CompileTest, UnknownConstraintVarRejected) {
  auto q = ParseQuery(
      "extract a:Entity from t if ( /ROOT:{ b = //verb } (b) in (zzz))");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(CompileQuery(*q).ok());
}

}  // namespace
}  // namespace koko
