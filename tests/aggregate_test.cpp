#include "koko/aggregate.h"

#include <gtest/gtest.h>

#include "koko/parser.h"
#include "nlp/pipeline.h"

namespace koko {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  // An Aggregator serves one query, so each scoring builds its own.
  Aggregator MakeAggregator(Aggregator::Options options = {}) {
    return Aggregator(&embeddings_, pipeline_.recognizer(), options);
  }

  Document Doc(std::initializer_list<const char*> sentences) {
    std::string text;
    for (const char* s : sentences) {
      text += s;
      text += " ";
    }
    return pipeline_.AnnotateDocument({"t", text}, 0);
  }

  double Cond(const Document& doc, const std::string& value,
              SatCondition::Kind kind, const std::string& text) {
    SatCondition cond;
    cond.kind = kind;
    cond.var = "x";
    cond.text = text;
    return MakeAggregator().ConditionScore(doc, value, CompileCondition(cond));
  }

  Pipeline pipeline_;
  EmbeddingModel embeddings_;
};

TEST_F(AggregateTest, ContainsIsTokenLevel) {
  Document doc = Doc({"Anything."});
  // §4.4.1: "chocolate ice cream" contains "ice", mentions "choc" but does
  // not contain "choc".
  EXPECT_EQ(Cond(doc, "chocolate ice cream", SatCondition::Kind::kStrContains,
                 "ice"),
            1.0);
  EXPECT_EQ(Cond(doc, "chocolate ice cream", SatCondition::Kind::kStrContains,
                 "choc"),
            0.0);
  EXPECT_EQ(Cond(doc, "chocolate ice cream", SatCondition::Kind::kStrMentions,
                 "choc"),
            1.0);
}

TEST_F(AggregateTest, MatchesIsFullRegex) {
  Document doc = Doc({"Anything."});
  EXPECT_EQ(Cond(doc, "La Marzocco", SatCondition::Kind::kStrMatches,
                 "[Ll]a Marzocco"),
            1.0);
  EXPECT_EQ(Cond(doc, "A La Marzocco machine", SatCondition::Kind::kStrMatches,
                 "[Ll]a Marzocco"),
            0.0);
}

TEST_F(AggregateTest, FollowedByAndPrecededBy) {
  Document doc = Doc({"Brim House, a cafe in Portland, opened last month."});
  EXPECT_EQ(
      Cond(doc, "Brim House", SatCondition::Kind::kFollowedBy, ", a cafe"), 1.0);
  EXPECT_EQ(Cond(doc, "Portland", SatCondition::Kind::kFollowedBy, ", a cafe"),
            0.0);
  EXPECT_EQ(Cond(doc, "cafe", SatCondition::Kind::kPrecededBy, ", a"), 1.0);
}

TEST_F(AggregateTest, NearScoresInverseDistance) {
  Document doc = Doc({"Brim House serves great coffee."});
  // distance("Brim House", "coffee") = 2 tokens (serves, great).
  EXPECT_DOUBLE_EQ(
      Cond(doc, "Brim House", SatCondition::Kind::kNear, "coffee"),
      1.0 / 3.0);
  // Adjacent mention scores 1.
  Document doc2 = Doc({"Brim House coffee is nice."});
  EXPECT_DOUBLE_EQ(Cond(doc2, "Brim House", SatCondition::Kind::kNear, "coffee"),
                   1.0);
  // Absent string scores 0.
  EXPECT_EQ(Cond(doc, "Brim House", SatCondition::Kind::kNear, "tea"), 0.0);
}

TEST_F(AggregateTest, DescriptorMatchesParaphrase) {
  // "sells espresso" is a paraphrase of "serves coffee" in the embedding
  // clusters; the descriptor must catch it.
  Document doc = Doc({"Brim House sells espresso every day."});
  double score = Cond(doc, "Brim House", SatCondition::Kind::kDescriptorRight,
                      "serves coffee");
  EXPECT_GT(score, 0.5);
  // The unrelated phrase scores zero.
  EXPECT_EQ(Cond(doc, "Brim House", SatCondition::Kind::kDescriptorRight,
                 "plays music"),
            0.0);
}

TEST_F(AggregateTest, DescriptorRespectsSide) {
  Document doc = Doc({"Brim House sells espresso."});
  EXPECT_GT(Cond(doc, "Brim House", SatCondition::Kind::kDescriptorRight,
                 "serves coffee"),
            0.0);
  // Left-side descriptor: the evidence is to the right -> no match.
  EXPECT_EQ(Cond(doc, "Brim House", SatCondition::Kind::kDescriptorLeft,
                 "serves coffee"),
            0.0);
}

TEST_F(AggregateTest, DescriptorAggregatesOverSentences) {
  Document one = Doc({"Brim House sells espresso."});
  Document two = Doc({"Brim House sells espresso.",
                      "Brim House pours espresso for regulars."});
  SatCondition cond;
  cond.kind = SatCondition::Kind::kDescriptorRight;
  cond.text = "serves coffee";
  const CompiledCondition compiled = CompileCondition(cond);
  Aggregator aggregator = MakeAggregator();
  double s1 = aggregator.ConditionScore(one, "Brim House", compiled);
  double s2 = aggregator.ConditionScore(two, "Brim House", compiled);
  EXPECT_GT(s2, s1);  // evidence accumulates across sentences
}

TEST_F(AggregateTest, WeightedSumAndThreshold) {
  Document doc = Doc({"Brim House sells espresso."});
  SatisfyingClause clause;
  clause.var = "x";
  SatCondition strong;
  strong.kind = SatCondition::Kind::kStrContains;
  strong.var = "x";
  strong.text = "House";
  strong.weight = 1.0;
  SatCondition weak;
  weak.kind = SatCondition::Kind::kDescriptorRight;
  weak.var = "x";
  weak.text = "serves coffee";
  weak.weight = 0.5;
  clause.conditions = {strong, weak};
  double score = MakeAggregator().Score(doc, "Brim House", CompileClause(clause));
  EXPECT_GT(score, 1.0);  // 1.0 + 0.5 * conf
  EXPECT_LT(score, 1.6);
}

TEST_F(AggregateTest, DescriptorsDisabledAblation) {
  Aggregator::Options options;
  options.use_descriptors = false;
  Aggregator no_desc = MakeAggregator(options);
  Document doc = Doc({"Brim House sells espresso."});
  SatCondition cond;
  cond.kind = SatCondition::Kind::kDescriptorRight;
  cond.var = "x";
  cond.text = "serves coffee";
  EXPECT_EQ(no_desc.ConditionScore(doc, "Brim House", CompileCondition(cond)),
            0.0);
}

TEST_F(AggregateTest, InDictUsesGazetteer) {
  Document doc = Doc({"Anything."});
  EXPECT_EQ(Cond(doc, "Portland", SatCondition::Kind::kInDict, "GPE"), 1.0);
  EXPECT_EQ(Cond(doc, "Brim House", SatCondition::Kind::kInDict, "GPE"), 0.0);
  EXPECT_EQ(Cond(doc, "Anna Mercer", SatCondition::Kind::kInDict, "Person"),
            1.0);
}

TEST_F(AggregateTest, SimilarToUsesEmbeddings) {
  Document doc = Doc({"Anything."});
  double tokyo = Cond(doc, "Tokyo", SatCondition::Kind::kSimilarTo, "city");
  double japan = Cond(doc, "Japan", SatCondition::Kind::kSimilarTo, "city");
  EXPECT_GT(tokyo, 0.3);
  EXPECT_LT(japan, 0.3);
  EXPECT_EQ(Cond(doc, "city", SatCondition::Kind::kSimilarTo, "city"), 1.0);
}

TEST_F(AggregateTest, UncompilableConditionsMatchNothing) {
  Document doc = Doc({"Anything."});
  SatCondition bad_regex;
  bad_regex.kind = SatCondition::Kind::kStrMatches;
  bad_regex.text = "([unclosed";
  const CompiledCondition compiled = CompileCondition(bad_regex);
  EXPECT_FALSE(compiled.pattern.has_value());
  EXPECT_EQ(MakeAggregator().ConditionScore(doc, "([unclosed", compiled), 0.0);
  EXPECT_EQ(Cond(doc, "Portland", SatCondition::Kind::kInDict, "NoSuchType"),
            0.0);
}

// A clause's ScoreCache key covers what its score depends on: the clause's
// content and the aggregator's configuration, never its threshold.
TEST_F(AggregateTest, ClauseKeySeparatesClausesAndConfigurations) {
  SatisfyingClause clause;
  clause.var = "x";
  clause.threshold = 0.5;
  SatCondition cond;
  cond.kind = SatCondition::Kind::kStrContains;
  cond.var = "x";
  cond.text = "Cafe";
  cond.weight = 1.0;
  clause.conditions.push_back(cond);
  Aggregator aggregator = MakeAggregator();
  auto key = [&](const SatisfyingClause& c) {
    return aggregator.ClauseKey(CompileClause(c));
  };

  const uint64_t base = key(clause);
  EXPECT_EQ(key(clause), base);  // deterministic

  // The threshold gates rows after scoring; it must NOT change the key
  // (same clause content -> shared warm scores).
  SatisfyingClause other_threshold = clause;
  other_threshold.threshold = 0.9;
  EXPECT_EQ(key(other_threshold), base);

  // Anything that changes the score must change the key.
  SatisfyingClause other_text = clause;
  other_text.conditions[0].text = "Coffee";
  EXPECT_NE(key(other_text), base);
  SatisfyingClause other_weight = clause;
  other_weight.conditions[0].weight = 0.25;
  EXPECT_NE(key(other_weight), base);
  SatisfyingClause other_kind = clause;
  other_kind.conditions[0].kind = SatCondition::Kind::kStrMentions;
  EXPECT_NE(key(other_kind), base);
  SatisfyingClause more_conditions = clause;
  more_conditions.conditions.push_back(cond);
  EXPECT_NE(key(more_conditions), base);

  // So must the configuration: descriptors off, and ontology sets, whose
  // boundaries count ({"good", "happy"} is not {"good"} + {"happy"}).
  const CompiledClause compiled = CompileClause(clause);
  EXPECT_NE(MakeAggregator({.use_descriptors = false}).ClauseKey(compiled),
            base);
  const Aggregator joined(&embeddings_, pipeline_.recognizer(), {},
                          {{"good", "happy"}});
  const Aggregator split(&embeddings_, pipeline_.recognizer(), {},
                         {{"good"}, {"happy"}});
  EXPECT_NE(joined.ClauseKey(compiled), base);
  EXPECT_NE(joined.ClauseKey(compiled), split.ClauseKey(compiled));
}

// A variable's verdict-table key covers what its value filters decide
// with, threshold included, and no variable name.
TEST_F(AggregateTest, FilterSetKeySeparatesFilterSets) {
  auto compile = [](const std::string& text) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok()) << query.status().ToString();
    if (!query.ok()) return CompiledQuery();
    auto compiled = CompileQuery(*query);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    return compiled.ok() ? std::move(*compiled) : CompiledQuery();
  };
  Aggregator aggregator = MakeAggregator();
  auto key = [&](const std::string& text) {
    const CompiledQuery cq = compile(text);
    std::vector<size_t> slots;
    for (const ValueFilter& f : cq.value_filters) slots.push_back(f.slot);
    return aggregator.FilterSetKey(cq, slots);
  };
  const std::string head = R"(extract x:Entity from "t" if () )";
  const uint64_t base = key(head + R"(
      satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
      excluding (str(x) matches "[a-z]+"))");
  EXPECT_EQ(key(head + R"(
      satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
      excluding (str(x) matches "[a-z]+"))"),
            base);
  EXPECT_EQ(key(R"(extract y:Entity from "t" if ()
      satisfying y (str(y) contains "Cafe" {1}) with threshold 0.5
      excluding (str(y) matches "[a-z]+"))"),
            base);
  for (const char* other : {
           R"(satisfying x (str(x) contains "Cafe" {1}) with threshold 0.6
              excluding (str(x) matches "[a-z]+"))",
           R"(satisfying x (str(x) contains "Cafe" {0.5}) with threshold 0.5
              excluding (str(x) matches "[a-z]+"))",
           R"(satisfying x (str(x) mentions "Cafe" {1}) with threshold 0.5
              excluding (str(x) matches "[a-z]+"))",
           R"(satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
              excluding (str(x) matches "[a-z0-9]+"))",
           R"(satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5)",
           R"(excluding (str(x) matches "[a-z]+"))",
       }) {
    EXPECT_NE(key(head + other), base) << other;
  }
  // A lone excluding condition is no one-condition clause.
  EXPECT_NE(key(head + R"(excluding (str(x) contains "Cafe"))"),
            key(head + R"(satisfying x (str(x) contains "Cafe" {1})
                           with threshold 0)"));
  const CompiledQuery cq = compile(head + R"(
      excluding (str(x) matches "[a-z]+"))");
  EXPECT_NE(MakeAggregator({.use_descriptors = false}).FilterSetKey(cq, {0}),
            aggregator.FilterSetKey(cq, {0}));
}

TEST_F(AggregateTest, TokenOccurrencesHelper) {
  Pipeline p;
  Sentence s = p.AnnotateSentence("the cat and the dog and the cat");
  auto occ = TokenOccurrences(s, {"the", "cat"});
  EXPECT_EQ(occ, (std::vector<int>{0, 6}));
  EXPECT_TRUE(TokenOccurrences(s, {"the", "bird"}).empty());
  EXPECT_TRUE(TokenOccurrences(s, {}).empty());
}

}  // namespace
}  // namespace koko
