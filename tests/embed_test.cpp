#include "embed/embedding.h"

#include <gtest/gtest.h>

#include "embed/descriptor.h"
#include "nlp/pipeline.h"

namespace koko {
namespace {

TEST(EmbeddingTest, UnitNorm) {
  EmbeddingModel model;
  for (const char* w : {"serves", "coffee", "xyzzy", "tokyo"}) {
    const auto& v = model.Embed(w);
    double norm = 0;
    for (float x : v) norm += static_cast<double>(x) * x;
    EXPECT_NEAR(norm, 1.0, 1e-4) << w;
  }
}

TEST(EmbeddingTest, ClusterMembersAreClose) {
  EmbeddingModel model;
  EXPECT_GT(model.Similarity("serves", "sells"), 0.8);
  EXPECT_GT(model.Similarity("coffee", "espresso"), 0.8);
  EXPECT_GT(model.Similarity("delicious", "tasty"), 0.8);
}

TEST(EmbeddingTest, UnrelatedWordsAreFar) {
  EmbeddingModel model;
  EXPECT_LT(model.Similarity("serves", "coffee"), 0.3);
  EXPECT_LT(model.Similarity("barista", "city"), 0.3);
  EXPECT_LT(model.Similarity("xyzzy", "plugh"), 0.3);
}

TEST(EmbeddingTest, InstancesModeratelyCloseToTheirConcept) {
  EmbeddingModel model;
  for (const char* city : {"tokyo", "beijing", "paris"}) {
    double sim = model.Similarity(city, "city");
    EXPECT_GT(sim, 0.3) << city;
    EXPECT_LT(sim, 0.7) << city;
    EXPECT_LT(model.Similarity(city, "country"), 0.3) << city;
  }
  for (const char* country : {"china", "japan", "france"}) {
    EXPECT_GT(model.Similarity(country, "country"), 0.3) << country;
    EXPECT_LT(model.Similarity(country, "city"), 0.3) << country;
  }
}

TEST(EmbeddingTest, PluralStemming) {
  EmbeddingModel model;
  EXPECT_GT(model.Similarity("cappuccinos", "espresso"), 0.7);
  EXPECT_GT(model.Similarity("lattes", "coffee"), 0.7);
}

TEST(EmbeddingTest, Deterministic) {
  EmbeddingModel a;
  EmbeddingModel b;
  EXPECT_EQ(a.Embed("espresso"), b.Embed("espresso"));
}

TEST(EmbeddingTest, NeighborsSortedAndBounded) {
  EmbeddingModel model;
  auto neighbors = model.Neighbors("serves", 3, 0.3);
  ASSERT_LE(neighbors.size(), 3u);
  ASSERT_GE(neighbors.size(), 2u);
  for (size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_GE(neighbors[i - 1].score, neighbors[i].score);
  }
  for (const auto& n : neighbors) EXPECT_NE(n.text, "serves");
}

TEST(EmbeddingTest, CustomClusterRegistration) {
  EmbeddingModel model;
  model.AddParaphraseCluster({"frobnicate", "twiddle"});
  EXPECT_GT(model.Similarity("frobnicate", "twiddle"), 0.8);
}

TEST(DescriptorExpanderTest, ExpandsWithScores) {
  EmbeddingModel model;
  DescriptorExpander expander(&model);
  auto expansions = expander.Expand("serves coffee");
  ASSERT_FALSE(expansions.empty());
  // The original is first with score 1.0.
  EXPECT_EQ(expansions[0].text, "serves coffee");
  EXPECT_DOUBLE_EQ(expansions[0].score, 1.0);
  // Paraphrases are present with high scores.
  bool found_sells_espresso = false;
  for (const auto& e : expansions) {
    EXPECT_LE(e.score, 1.0);
    EXPECT_GT(e.score, 0.0);
    if (e.text == "sells espresso") found_sells_espresso = true;
  }
  EXPECT_TRUE(found_sells_espresso);
}

TEST(DescriptorExpanderTest, CapsExpansionCount) {
  EmbeddingModel model;
  DescriptorExpander expander(&model);
  // Two content words with several neighbours each combine into more
  // phrasings than the fixed cap of 24, which the expansion keeps.
  EXPECT_EQ(expander.Expand("serves coffee").size(), 24u);
}

TEST(DescriptorExpanderTest, FunctionWordsNotExpanded) {
  EmbeddingModel model;
  DescriptorExpander expander(&model);
  auto expansions = expander.Expand("in the city");
  for (const auto& e : expansions) {
    // "in" and "the" must appear verbatim in every expansion.
    EXPECT_EQ(e.text.substr(0, 7), "in the ");
  }
}

TEST(DescriptorExpanderTest, OntologySetAddsSafeSubstitutes) {
  EmbeddingModel model;
  DescriptorExpander expander(&model);
  expander.AddOntologySet({"coffee", "cortado"});
  auto expansions = expander.Expand("serves coffee");
  bool found = false;
  for (const auto& e : expansions) found |= (e.text == "serves cortado");
  EXPECT_TRUE(found);
}

TEST(SentenceDecomposerTest, SplitsClauses) {
  Pipeline pipeline;
  Sentence s = pipeline.AnnotateSentence(
      "I ate a chocolate ice cream, which was delicious, and also ate a pie.");
  auto clauses = SentenceDecomposer::Decompose(s);
  ASSERT_GE(clauses.size(), 3u);  // main + relative + coordinated
  // Main clause has score 1.0 and contains the first "ate".
  EXPECT_DOUBLE_EQ(clauses[0].score, 1.0);
  bool main_has_ate = false;
  for (int t : clauses[0].token_ids) main_has_ate |= (s.tokens[t].text == "ate");
  EXPECT_TRUE(main_has_ate);
  // Subordinate clauses score lower.
  for (size_t i = 1; i < clauses.size(); ++i) {
    EXPECT_LT(clauses[i].score, 1.0);
  }
  // Every non-punct token lands in exactly one clause.
  std::vector<int> count(static_cast<size_t>(s.size()), 0);
  for (const auto& c : clauses) {
    for (int t : c.token_ids) count[static_cast<size_t>(t)]++;
  }
  for (int t = 0; t < s.size(); ++t) {
    if (s.tokens[t].pos != PosTag::kPunct) {
      EXPECT_EQ(count[static_cast<size_t>(t)], 1) << "token " << t;
    }
  }
}

TEST(SentenceDecomposerTest, SimpleSentenceIsOneClause) {
  Pipeline pipeline;
  Sentence s = pipeline.AnnotateSentence("Anna ate a pie.");
  auto clauses = SentenceDecomposer::Decompose(s);
  ASSERT_EQ(clauses.size(), 1u);
  EXPECT_DOUBLE_EQ(clauses[0].score, 1.0);
}

}  // namespace
}  // namespace koko
