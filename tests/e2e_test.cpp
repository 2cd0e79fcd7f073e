// End-to-end shape tests: miniature versions of the paper's experiments
// asserting the qualitative results the benches report quantitatively.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/adv_inverted_index.h"
#include "baseline/inverted_index.h"
#include "baseline/koko_adapter.h"
#include "baseline/subtree_index.h"
#include "corpus/generators.h"
#include "corpus/query_gen.h"
#include "extract/ike.h"
#include "extract/metrics.h"
#include "koko/engine.h"
#include "koko/explain.h"
#include "koko/parser.h"
#include "koko/printer.h"
#include "nlp/pipeline.h"

namespace koko {
namespace {

std::string CafeQueryText(double threshold) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf), R"(
extract x:Entity from "blogs" if ()
satisfying x
  (str(x) contains "Cafe" {1}) or
  (str(x) contains "Coffee" {1}) or
  (str(x) contains "Roasters" {1}) or
  (x ", a cafe" {1}) or
  (x [["serves coffee"]] {0.5}) or
  (x [["employs baristas"]] {0.5}) or
  (x [["hired a star barista"]] {0.5}) or
  (x [["pours delicious lattes"]] {0.45})
with threshold %f
excluding
  (str(x) matches "[a-z 0-9.&]+") or
  (str(x) in dict("GPE")) or
  (str(x) in dict("Person"))
)",
                threshold);
  return buf;
}

std::vector<std::string> RunCafe(const AnnotatedCorpus& corpus,
                                 const ShardedKokoIndex& index,
                                 const Pipeline& pipeline,
                                 const EmbeddingModel& embeddings,
                                 double threshold, bool use_descriptors) {
  Engine engine(&corpus, &index, &embeddings, &pipeline.recognizer());
  EngineOptions options;
  options.use_descriptors = use_descriptors;
  auto result = engine.ExecuteText(CafeQueryText(threshold), options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::set<std::string> unique;
  if (result.ok()) {
    for (const auto& row : result->rows) unique.insert(row.values[0]);
  }
  return {unique.begin(), unique.end()};
}

TEST(EndToEndTest, KokoBeatsIkeOnCafes) {
  LabeledCorpus blogs =
      GenerateCafeBlogs({.num_articles = 50, .long_articles = false, .seed = 71});
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(blogs.docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;

  auto koko = RunCafe(corpus, *index, pipeline, embeddings, 0.4, true);
  PRF koko_prf = ScoreExtractionLists(blogs.gold, koko);

  IkeExtractor ike(&embeddings);
  auto ike_result =
      ike.RunAll(corpus, {"(NP) (\"serves coffee\" ~ 8)", "(NP) \", a cafe\""});
  ASSERT_TRUE(ike_result.ok());
  PRF ike_prf = ScoreExtractionLists(blogs.gold, *ike_result);

  // Figure 3's headline: KOKO's aggregation wins clearly.
  EXPECT_GT(koko_prf.f1, ike_prf.f1 + 0.1);
  EXPECT_GT(koko_prf.f1, 0.5);
}

TEST(EndToEndTest, DescriptorsHelpOnShortArticles) {
  LabeledCorpus blogs =
      GenerateCafeBlogs({.num_articles = 50, .long_articles = false, .seed = 72});
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(blogs.docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  auto with = RunCafe(corpus, *index, pipeline, embeddings, 0.4, true);
  auto without = RunCafe(corpus, *index, pipeline, embeddings, 0.4, false);
  PRF with_prf = ScoreExtractionLists(blogs.gold, with);
  PRF without_prf = ScoreExtractionLists(blogs.gold, without);
  // Figure 5: paraphrased weak evidence needs expansion.
  EXPECT_GT(with_prf.f1, without_prf.f1);
}

TEST(EndToEndTest, ThresholdTradesPrecisionForRecall) {
  LabeledCorpus blogs =
      GenerateCafeBlogs({.num_articles = 50, .long_articles = false, .seed = 73});
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(blogs.docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  PRF low = ScoreExtractionLists(
      blogs.gold, RunCafe(corpus, *index, pipeline, embeddings, 0.2, true));
  PRF high = ScoreExtractionLists(
      blogs.gold, RunCafe(corpus, *index, pipeline, embeddings, 0.9, true));
  EXPECT_GE(high.precision, low.precision);
  EXPECT_GE(low.recall, high.recall);
}

TEST(EndToEndTest, IndexEffectivenessOrdering) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 300, .seed = 74});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto koko = KokoTreeIndex::Build(corpus, 1);
  auto inverted = InvertedIndex::Build(corpus);
  auto adv = AdvInvertedIndex::Build(corpus);
  auto queries = GenerateSyntheticTreeBenchmark(
      corpus, {.queries_per_setting = 2, .seed = 75});
  double koko_eff = 0, inv_eff = 0, adv_eff = 0;
  size_t n = 0;
  for (const auto& q : queries) {
    auto kc = koko->CandidateSentences(q.paths);
    auto ic = inverted->CandidateSentences(q.paths);
    auto ac = adv->CandidateSentences(q.paths);
    if (!kc.ok() || !ic.ok() || !ac.ok()) continue;
    koko_eff += IndexEffectiveness(corpus, q.paths, *kc);
    inv_eff += IndexEffectiveness(corpus, q.paths, *ic);
    adv_eff += IndexEffectiveness(corpus, q.paths, *ac);
    ++n;
  }
  ASSERT_GT(n, 50u);
  // Figures 7/8: KOKO ~ ADVINVERTED ~ 1.0 > INVERTED.
  EXPECT_GT(koko_eff / n, 0.97);
  EXPECT_GT(adv_eff / n, 0.97);
  EXPECT_LT(inv_eff / n, koko_eff / n);
}

TEST(EndToEndTest, IndexSizeOrdering) {
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 200, .seed = 76});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto koko = KokoTreeIndex::Build(corpus, 1);
  auto inverted = InvertedIndex::Build(corpus);
  auto adv = AdvInvertedIndex::Build(corpus);
  auto subtree = SubtreeIndex::Build(corpus);
  // Figure 6(b): KOKO smallest, SUBTREE largest.
  EXPECT_LT(koko->MemoryUsage(), inverted->MemoryUsage());
  EXPECT_LT(inverted->MemoryUsage(), adv->MemoryUsage());
  EXPECT_LT(adv->MemoryUsage(), subtree->MemoryUsage());
}

TEST(EndToEndTest, ExplainerBreaksDownScores) {
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(
      {{"t", "Brim House sells espresso. Brim House employs a small team of "
             "4 baristas."}});
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  Explainer explainer(engine);
  auto q = ParseQuery(CafeQueryText(0.6));
  ASSERT_TRUE(q.ok());
  ClauseExplanation explanation =
      explainer.Explain(corpus.docs[0], "Brim House", q->satisfying[0]);
  EXPECT_TRUE(explanation.passed);
  EXPECT_GT(explanation.score, 0.6);
  // The two descriptor conditions carry the evidence.
  double descriptor_total = 0;
  for (const auto& c : explanation.conditions) {
    if (c.condition.kind == SatCondition::Kind::kDescriptorRight) {
      descriptor_total += c.contribution;
    }
  }
  EXPECT_GT(descriptor_total, 0.5);
  // Rendering mentions the value and verdict.
  std::string text = explanation.ToString();
  EXPECT_NE(text.find("Brim House"), std::string::npos);
  EXPECT_NE(text.find("PASS"), std::string::npos);
}

// An explanation scores with the engine's ontology sets, so it agrees with
// every row it explains. Only the registered set relates "zorbo" to the
// descriptor's "coffee"; without it the clause scores zero.
TEST(EndToEndTest, ExplainerScoresWithEngineOntologySets) {
  Pipeline pipeline;
  AnnotatedCorpus corpus =
      pipeline.AnnotateCorpus({{"t", "Brim House serves zorbo daily."}});
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  engine.AddOntologySet({"coffee", "zorbo"});
  auto q = ParseQuery(R"(extract x:Entity from "t" if ()
      satisfying x (x [["serves coffee"]] {1}) with threshold 0.5)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  auto result = engine.Execute(*q, EngineOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rows.empty());

  Explainer explainer(engine);
  bool saw_brim_house = false;
  for (const ResultRow& row : result->rows) {
    for (size_t ci = 0; ci < q->satisfying.size(); ++ci) {
      const SatisfyingClause& clause = q->satisfying[ci];
      const size_t column = static_cast<size_t>(
          std::find(result->output_names.begin(), result->output_names.end(),
                    clause.var) -
          result->output_names.begin());
      ASSERT_LT(column, row.values.size());
      const ClauseExplanation explanation =
          explainer.Explain(corpus.docs[row.doc], row.values[column], clause);
      EXPECT_EQ(explanation.score, row.scores[ci]) << row.values[column];
      EXPECT_TRUE(explanation.passed) << row.values[column];
      saw_brim_house |= row.values[column] == "Brim House";
    }
  }
  EXPECT_TRUE(saw_brim_house);
}

TEST(EndToEndTest, QueryPrinterRoundTrip) {
  const std::vector<std::string> queries = {
      R"(extract e:Entity, d:Str from "input.txt" if (
        /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = b.subtree }
        (b) in (e)))",
      CafeQueryText(0.8),
      R"(extract a:Person, b:Str from "w" if (
        /ROOT:{ v = //"called", p = v/propn, b = p.subtree,
                c = a + ^ + v + ^[max=3] + b }))",
  };
  for (const std::string& text : queries) {
    auto q1 = ParseQuery(text);
    ASSERT_TRUE(q1.ok()) << q1.status().ToString();
    std::string printed = QueryToString(*q1);
    auto q2 = ParseQuery(printed);
    ASSERT_TRUE(q2.ok()) << "re-parse failed:\n" << printed << "\n"
                         << q2.status().ToString();
    // Structural equality via a second print.
    EXPECT_EQ(printed, QueryToString(*q2));
  }
}

TEST(EndToEndTest, SpanBenchQueriesPrintable) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 100, .seed = 77});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto queries = GenerateSyntheticSpanBenchmark(
      corpus, {.queries_per_setting = 5, .seed = 78});
  for (const auto& bench : queries) {
    std::string printed = QueryToString(bench.query);
    auto reparsed = ParseQuery(printed);
    EXPECT_TRUE(reparsed.ok()) << printed << "\n"
                               << reparsed.status().ToString();
  }
}

}  // namespace
}  // namespace koko
