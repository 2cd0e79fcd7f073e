#include "koko/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "corpus/generators.h"
#include "corpus/query_gen.h"
#include "index/sharded_index.h"
#include "nlp/pipeline.h"
#include "koko/score_cache.h"
#include "replay/workloads.h"
#include "storage/doc_store.h"

namespace koko {
namespace {

struct World {
  Pipeline pipeline;
  AnnotatedCorpus corpus;
  std::unique_ptr<ShardedKokoIndex> index;
  EmbeddingModel embeddings;
  std::unique_ptr<Engine> engine;

  explicit World(std::initializer_list<RawDocument> docs)
      : World(std::vector<RawDocument>(docs)) {}
  explicit World(const std::vector<RawDocument>& docs) {
    corpus = pipeline.AnnotateCorpus(docs);
    index = ShardedKokoIndex::Build(corpus, 1);
    engine = std::make_unique<Engine>(&corpus, index.get(), &embeddings,
                                      &const_cast<const Pipeline&>(pipeline)
                                           .recognizer());
  }
};

TEST(EngineTest, ExampleTwoOneBindings) {
  World w({{"d",
            "I ate a chocolate ice cream, which was delicious, and also ate a "
            "pie. Anna ate some delicious cheesecake that she bought at a "
            "grocery store."}});
  auto result = w.engine->ExecuteText(R"(
      extract e:Entity, d:Str from "input.txt" if (
        /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
        (b) in (e)))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].values[0], "chocolate ice cream");
  EXPECT_EQ(result->rows[0].values[1],
            "a chocolate ice cream , which was delicious");
  EXPECT_EQ(result->rows[1].values[0], "cheesecake");
}

TEST(EngineTest, EmptyWhenWordAbsent) {
  World w({{"d", "I ate a pie."}});
  auto result = w.engine->ExecuteText(R"(
      extract d:Str from "t" if (
        /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }))");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(result->candidate_sentences, 0u);  // DPLI short-circuits
}

TEST(EngineTest, HorizontalConditionWithElastics) {
  World w({{"d", "Anna quietly ate a delicious pie."}});
  auto result = w.engine->ExecuteText(R"(
      extract x:Str from "t" if (
        /ROOT:{ v = //verb, x = "Anna" + ^ + v + ^ + "pie" }))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].values[0], "Anna quietly ate a delicious pie");
}

TEST(EngineTest, AdjacencyRequiredWithoutElastic) {
  World w({{"d", "Anna quietly ate a pie."}});
  // "Anna" + verb requires adjacency: "quietly" intervenes -> no match.
  auto no = w.engine->ExecuteText(R"(
      extract x:Str from "t" if ( /ROOT:{ v = //verb, x = "Anna" + v }))");
  ASSERT_TRUE(no.ok());
  EXPECT_TRUE(no->rows.empty());
  // With an elastic the same pattern matches.
  auto yes = w.engine->ExecuteText(R"(
      extract x:Str from "t" if ( /ROOT:{ v = //verb, x = "Anna" + ^ + v }))");
  ASSERT_TRUE(yes.ok());
  EXPECT_EQ(yes->rows.size(), 1u);
}

TEST(EngineTest, ElasticBoundsRespected) {
  World w({{"d", "Anna quickly and quietly ate a pie."}});
  auto bounded = w.engine->ExecuteText(R"(
      extract x:Str from "t" if (
        /ROOT:{ v = //verb, x = "Anna" + ^[max=2] + v }))");
  ASSERT_TRUE(bounded.ok());
  EXPECT_TRUE(bounded->rows.empty());  // gap is 3 tokens
  auto wide = w.engine->ExecuteText(R"(
      extract x:Str from "t" if (
        /ROOT:{ v = //verb, x = "Anna" + ^[max=4] + v }))");
  ASSERT_TRUE(wide.ok());
  EXPECT_EQ(wide->rows.size(), 1u);
}

TEST(EngineTest, ElasticRegexFiltersSpans) {
  World w({{"d", "Anna quickly and quietly ate a pie."}});
  auto rows = [&](const char* query, bool use_gsp) {
    EngineOptions options;
    options.use_gsp = use_gsp;
    auto result = w.engine->ExecuteText(query, options);
    EXPECT_TRUE(result.ok()) << query;
    std::vector<std::string> values;
    if (result.ok()) {
      for (const ResultRow& row : result->rows) values.push_back(row.values[0]);
    }
    return values;
  };
  const std::vector<std::string> whole = {"Anna quickly and quietly ate a pie"};
  for (bool use_gsp : {true, false}) {
    EXPECT_EQ(rows(R"(extract x:Str from "t" if (/ROOT:{ v = //verb,
        x = "Anna" + ^[regex="q[a-z]* and q[a-z]*"] + v + ^ + "pie" }))",
                   use_gsp),
              whole);
    EXPECT_TRUE(rows(R"(extract x:Str from "t" if (/ROOT:{ v = //verb,
        x = "Anna" + ^[regex="slowly"] + v }))",
                     use_gsp)
                    .empty());
    // Two elastics with one pattern: each span is matched on its own.
    EXPECT_EQ(rows(R"(extract x:Str from "t" if (/ROOT:{ v = //verb,
        x = "Anna" + ^[regex="[a-z ]+"] + v + ^[regex="[a-z ]+"] + "pie" }))",
                   use_gsp),
              whole);
    // A pattern that does not compile binds nothing; it is not an error.
    EXPECT_TRUE(rows(R"(extract x:Str from "t" if (/ROOT:{ v = //verb,
        x = "Anna" + ^[regex="(quickly"] + v }))",
                     use_gsp)
                    .empty());
  }
}

TEST(EngineTest, EqConstraint) {
  World w({{"d", "Anna ate a pie."}});
  auto result = w.engine->ExecuteText(R"(
      extract x:Str from "t" if (
        /ROOT:{ v = //verb, b = v/dobj, x = (b.subtree), y = "a" + "pie" }
        (y) eq (x)))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 1u);
}

TEST(EngineTest, ParentOfConstraintFromRelativePath) {
  World w({{"d", "Anna ate a delicious pie."}});
  // b = a/dobj derives (a parentOf b): head of the dobj must be that verb.
  auto result = w.engine->ExecuteText(R"(
      extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].values[0], "pie");
}

TEST(EngineTest, GspEqualsNogspOnSyntheticSpans) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 120, .seed = 33});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  auto queries = GenerateSyntheticSpanBenchmark(
      corpus, {.queries_per_setting = 6, .seed = 34});
  ASSERT_FALSE(queries.empty());
  for (const auto& bench : queries) {
    EngineOptions gsp;
    gsp.use_gsp = true;
    gsp.max_rows = 50000;
    EngineOptions nogsp;
    nogsp.use_gsp = false;
    nogsp.max_rows = 50000;
    auto a = engine.Execute(bench.query, gsp);
    auto b = engine.Execute(bench.query, nogsp);
    ASSERT_TRUE(a.ok()) << bench.name;
    ASSERT_TRUE(b.ok()) << bench.name;
    std::set<std::pair<uint32_t, std::string>> rows_a, rows_b;
    for (const auto& row : a->rows) rows_a.insert({row.sid, row.values[0]});
    for (const auto& row : b->rows) rows_b.insert({row.sid, row.values[0]});
    EXPECT_EQ(rows_a, rows_b) << bench.name;
  }
}

TEST(EngineTest, IndexPruningMatchesFullScan) {
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 40, .seed = 35});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  const char* query = R"(
      extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))";
  EngineOptions with_index;
  EngineOptions no_index;
  no_index.use_index = false;
  auto a = engine.ExecuteText(query, with_index);
  auto b = engine.ExecuteText(query, no_index);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->rows.size(), b->rows.size());
  EXPECT_LE(a->candidate_sentences, b->candidate_sentences);
}

TEST(EngineTest, SatisfyingThresholdFiltersRows) {
  World w({{"d", "Cities in asian countries such as China and Japan."}});
  auto low = w.engine->ExecuteText(R"(
      extract a:GPE from "t" if ()
      satisfying a (a SimilarTo "country" {1.0}) with threshold 0.3)");
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->rows.size(), 2u);  // China, Japan
  auto high = w.engine->ExecuteText(R"(
      extract a:GPE from "t" if ()
      satisfying a (a SimilarTo "country" {1.0}) with threshold 0.99)");
  ASSERT_TRUE(high.ok());
  EXPECT_TRUE(high->rows.empty());
}

TEST(EngineTest, ExcludingRemovesMatches) {
  World w({{"d", "Anna visited the Brim Cafe in Portland."}});
  auto all = w.engine->ExecuteText(R"(
      extract x:Entity from "t" if ()
      satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5)");
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->rows.size(), 1u);
  auto excluded = w.engine->ExecuteText(R"(
      extract x:Entity from "t" if ()
      satisfying x (str(x) contains "Cafe" {1}) with threshold 0.5
      excluding (str(x) matches "Brim Cafe"))");
  ASSERT_TRUE(excluded.ok());
  EXPECT_TRUE(excluded->rows.empty());
}

TEST(EngineTest, PhaseStatsPopulated) {
  World w({{"d", "Anna ate a delicious pie."}});
  auto result = w.engine->ExecuteText(R"(
      extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))");
  ASSERT_TRUE(result.ok());
  const PhaseStats& phases = result->phases;
  EXPECT_GT(phases.Get(Phase::kNormalize), 0.0);
  EXPECT_GT(phases.Get(Phase::kDpli), 0.0);
  EXPECT_GT(phases.Get(Phase::kLoadArticle), 0.0);
  EXPECT_GT(phases.Get(Phase::kExtract), 0.0);
}

// GSP runs inside the extract scan, so it is a sub-phase: a query's total
// is the sum of its five top-level phases and does not count GSP twice.
TEST(EngineTest, PhaseTotalSumsTopLevelPhases) {
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(
      GenerateHappyMoments({.num_moments = 100, .seed = 37}));
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  const RowSink sink = [](const ResultRow&) {};
  for (bool streamed : {false, true}) {
    EngineOptions options;
    if (streamed) options.sink = &sink;
    auto result = engine.ExecuteText(
        "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })",
        options);
    ASSERT_TRUE(result.ok());
    const PhaseStats& phases = result->phases;
    ASSERT_GT(phases.Get("GSP"), 0.0);
    EXPECT_LE(phases.Get("GSP"), phases.Get("extract"));
    double top_level = 0;
    for (const char* name :
         {"Normalize", "DPLI", "LoadArticle", "extract", "satisfying"}) {
      top_level += phases.Get(name);
    }
    EXPECT_NEAR(phases.Total(), top_level, 1e-12)
        << (streamed ? "streamed" : "full");
  }
}

TEST(EngineTest, MaxRowsLimit) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 200, .seed = 36});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  EngineOptions options;
  options.max_rows = 5;
  auto result = engine.ExecuteText(
      "extract v:Str from \"t\" if ( /ROOT:{ v = //verb })", options);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->rows.size(), 5u);
}

// Asserts that every field of every row (and the row order) is identical.
void ExpectSameRows(const QueryResult& a, const QueryResult& b,
                    const std::string& context) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << context;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].doc, b.rows[i].doc) << context << " row " << i;
    EXPECT_EQ(a.rows[i].sid, b.rows[i].sid) << context << " row " << i;
    EXPECT_EQ(a.rows[i].values, b.rows[i].values) << context << " row " << i;
    EXPECT_EQ(a.rows[i].scores, b.rows[i].scores) << context << " row " << i;
  }
}

// The same, and both runs drew and scanned the same candidates.
void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b,
                            const std::string& context) {
  EXPECT_EQ(a.candidate_sentences, b.candidate_sentences) << context;
  EXPECT_EQ(a.scanned_candidates, b.scanned_candidates) << context;
  ExpectSameRows(a, b, context);
}

// A resident corpus is borrowed; a document store deserialises a
// query-owned copy of every candidate article. Both must give identical
// results for every query of every replay workload class (including the
// satisfying/excluding classes), over a one-shard and a four-shard index,
// for a full evaluation and for streamed top-k.
TEST(EngineTest, DocumentStoreMatchesResidentCorpus) {
  Pipeline pipeline;
  auto workloads =
      replay::BuildAllWorkloads(pipeline, replay::WorkloadOptions());
  ASSERT_TRUE(workloads.ok()) << workloads.status().ToString();
  EmbeddingModel embeddings;
  const EntityRecognizer* recognizer =
      &const_cast<const Pipeline&>(pipeline).recognizer();
  const RowSink sink = [](const ResultRow&) {};
  for (const replay::Workload& workload : *workloads) {
    auto one = ShardedKokoIndex::Build(workload.corpus, 1);
    auto sharded = ShardedKokoIndex::Build(workload.corpus, 4);
    const DocumentStore store = DocumentStore::FromCorpus(workload.corpus);
    Engine resident_one(&workload.corpus, one.get(), &embeddings, recognizer);
    Engine stored_one(&workload.corpus, one.get(), &embeddings, recognizer);
    Engine resident_sharded(&workload.corpus, sharded.get(), &embeddings,
                            recognizer);
    Engine stored_sharded(&workload.corpus, sharded.get(), &embeddings,
                          recognizer);
    stored_one.set_document_store(&store);
    stored_sharded.set_document_store(&store);
    const struct {
      const char* name;
      const Engine* resident;
      const Engine* stored;
    } indexes[] = {{"sharded1", &resident_one, &stored_one},
                   {"sharded4", &resident_sharded, &stored_sharded}};
    for (const replay::WorkloadQuery& query : workload.queries) {
      for (bool top_k : {false, true}) {
        EngineOptions options;
        if (top_k) {
          options.sink = &sink;
          options.max_rows = 10;
          options.early_terminate = true;
        }
        for (const auto& index : indexes) {
          const std::string context = workload.name + "/" + query.name + " " +
                                      index.name +
                                      (top_k ? " top10" : " full");
          auto want = index.resident->Execute(query.query, options);
          auto got = index.stored->Execute(query.query, options);
          ASSERT_TRUE(want.ok()) << context;
          ASSERT_TRUE(got.ok()) << context;
          ExpectIdenticalResults(*want, *got, context);
        }
      }
    }
  }
}

// ---- Sharding suite ---------------------------------------------------------
//
// For every query, the engine over a K-shard index must return results
// byte-identical to the engine over one shard — same rows, same order, same
// candidate count — for every K, because per-shard DPLI candidate lists
// concatenate in ascending global sid order.

TEST(EngineTest, ShardedEngineMatchesOneShard) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 150, .seed = 51});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto one_index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine one(&corpus, one_index.get(), &embeddings,
              &const_cast<const Pipeline&>(pipeline).recognizer());
  auto queries = GenerateSyntheticSpanBenchmark(
      corpus, {.queries_per_setting = 3, .seed = 52});
  ASSERT_FALSE(queries.empty());
  EngineOptions base;
  base.max_rows = 50000;
  for (size_t k : {1u, 2u, 4u, 7u}) {
    auto sharded_index = ShardedKokoIndex::Build(corpus, k);
    Engine sharded(&corpus, sharded_index.get(), &embeddings,
                   &const_cast<const Pipeline&>(pipeline).recognizer());
    for (const auto& bench : queries) {
      auto want = one.Execute(bench.query, base);
      ASSERT_TRUE(want.ok()) << bench.name;
      auto got = sharded.Execute(bench.query, base);
      ASSERT_TRUE(got.ok()) << bench.name;
      ExpectIdenticalResults(*want, *got,
                             bench.name + " K=" + std::to_string(k));
    }
  }
}

TEST(EngineTest, ShardedEngineUnevenBoundaries) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 80, .seed = 53});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  const uint32_t n = static_cast<uint32_t>(corpus.NumSentences());
  ASSERT_GE(n, 10u);
  auto one_index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine one(&corpus, one_index.get(), &embeddings,
             &const_cast<const Pipeline&>(pipeline).recognizer());
  // Lopsided shards, including an empty one.
  ShardedKokoIndex::Options options;
  options.boundaries = {0, 2, 2, n / 2, n};
  auto sharded_index = ShardedKokoIndex::Build(corpus, options);
  Engine sharded(&corpus, sharded_index.get(), &embeddings,
                 &const_cast<const Pipeline&>(pipeline).recognizer());
  const char* query =
      "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";
  auto want = one.ExecuteText(query);
  ASSERT_TRUE(want.ok());
  auto got = sharded.ExecuteText(query);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalResults(*want, *got, "uneven");
}

TEST(EngineTest, ShardedMaxRowsTruncationIsDeterministic) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 200, .seed = 54});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto one_index = ShardedKokoIndex::Build(corpus, 1);
  auto sharded_index = ShardedKokoIndex::Build(corpus, 4);
  EmbeddingModel embeddings;
  Engine one(&corpus, one_index.get(), &embeddings,
             &const_cast<const Pipeline&>(pipeline).recognizer());
  Engine sharded(&corpus, sharded_index.get(), &embeddings,
                 &const_cast<const Pipeline&>(pipeline).recognizer());
  const char* query =
      "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";
  for (size_t cap : {0u, 1u, 7u, 23u, 50u}) {
    EngineOptions options;
    options.max_rows = cap;
    auto want = one.ExecuteText(query, options);
    ASSERT_TRUE(want.ok());
    // The emit protocol is push-then-check, so a cap of 0 still admits the
    // first row; every cap >= 1 is exact.
    EXPECT_LE(want->rows.size(), std::max<size_t>(cap, 1));
    auto got = sharded.ExecuteText(query, options);
    ASSERT_TRUE(got.ok());
    ExpectIdenticalResults(*want, *got, "cap=" + std::to_string(cap));
  }
}

TEST(EngineTest, MappedIndexQueriesMatchCopyAcrossShards) {
  // End-to-end parity for LoadMode::kMap: an engine over a mapped index
  // returns byte-identical rows to the engine over the built one-shard
  // index, for every shard count K, including max_rows truncation.
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 120, .seed = 56});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto built = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  const EntityRecognizer& recognizer =
      const_cast<const Pipeline&>(pipeline).recognizer();
  Engine reference(&corpus, built.get(), &embeddings, &recognizer);
  const char* query =
      "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";

  for (size_t k : {1u, 2u, 4u}) {
    auto sharded_built = ShardedKokoIndex::Build(corpus, k);
    std::string path = ::testing::TempDir() + "/engine_mmap_sharded_" +
                       std::to_string(k) + ".bin";
    ASSERT_TRUE(sharded_built->Save(path).ok());
    ShardedKokoIndex::LoadOptions load_options;
    load_options.mode = LoadMode::kMap;
    auto mapped = ShardedKokoIndex::Load(path, load_options);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_TRUE((*mapped)->mapped());
    Engine sharded(&corpus, mapped->get(), &embeddings, &recognizer);
    for (size_t cap : {0u, 1u, 7u, 9u, 50000u}) {
      EngineOptions options;
      options.max_rows = cap;
      auto want = reference.ExecuteText(query, options);
      ASSERT_TRUE(want.ok());
      auto got = sharded.ExecuteText(query, options);
      ASSERT_TRUE(got.ok());
      ExpectIdenticalResults(*want, *got,
                             "mapped K=" + std::to_string(k) +
                                 " cap=" + std::to_string(cap));
    }
    std::remove(path.c_str());
  }
}

TEST(EngineTest, ShardedSatisfyingQueryMatchesOneShard) {
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 30, .seed = 55});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto one_index = ShardedKokoIndex::Build(corpus, 1);
  auto sharded_index = ShardedKokoIndex::Build(corpus, 4);
  EmbeddingModel embeddings;
  Engine one(&corpus, one_index.get(), &embeddings,
             &const_cast<const Pipeline&>(pipeline).recognizer());
  Engine sharded(&corpus, sharded_index.get(), &embeddings,
                 &const_cast<const Pipeline&>(pipeline).recognizer());
  const char* query = R"(
      extract x:Entity from "t" if ()
      satisfying x (str(x) contains "a" {1}) with threshold 0.5)";
  auto want = one.ExecuteText(query);
  ASSERT_TRUE(want.ok());
  auto got = sharded.ExecuteText(query);
  ASSERT_TRUE(got.ok());
  ExpectIdenticalResults(*want, *got, "sharded satisfying");
}

TEST(EngineTest, IndexLargerThanCorpusFailsQuery) {
  // An index built over a larger corpus than the engine serves holds sids
  // past the corpus end; the query must fail with an error instead of
  // reading past the corpus when it loads candidate articles. An index over
  // a smaller corpus must fail too: an unpruned shard contributes its whole
  // range, so the corpus tail would silently drop out of the answer.
  Pipeline pipeline;
  AnnotatedCorpus large = pipeline.AnnotateCorpus(
      GenerateHappyMoments({.num_moments = 80, .seed = 61}));
  AnnotatedCorpus small = pipeline.AnnotateCorpus(
      GenerateHappyMoments({.num_moments = 4, .seed = 62}));
  ASSERT_LT(small.NumSentences(), large.NumSentences());
  auto one = ShardedKokoIndex::Build(large, 1);
  auto sharded = ShardedKokoIndex::Build(large, 3);
  auto short_index = ShardedKokoIndex::Build(small, 1);
  EmbeddingModel embeddings;
  const EntityRecognizer* recognizer =
      &const_cast<const Pipeline&>(pipeline).recognizer();
  Engine from_one(&small, one.get(), &embeddings, recognizer);
  Engine from_sharded(&small, sharded.get(), &embeddings, recognizer);
  Engine from_short(&large, short_index.get(), &embeddings, recognizer);
  // The second query prunes nothing, so DPLI yields each shard's range.
  for (const char* query :
       {"extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })",
        "extract a:Str from \"t\" if ( /ROOT:{ a = //* })"}) {
    for (Engine* engine : {&from_one, &from_sharded, &from_short}) {
      auto result = engine->ExecuteText(query);
      ASSERT_FALSE(result.ok()) << query;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << query;
    }
  }
}

// ---- Row semantics ------------------------------------------------------------
//
// Rows are deduplicated per sentence by the text of their values and scored
// per (document, clause, value text). These cases pin that contract.

TEST(EngineTest, RepeatedTokenTextEmitsOneRow) {
  // Two "pie" tokens bind two different spans with equal text.
  World w({{"d", "Anna ate a pie and Bob ate a pie."}});
  auto result = w.engine->ExecuteText(R"(
      extract b:Str from "t" if ( /ROOT:{ b = //"pie" }))");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].values[0], "pie");
}

TEST(EngineTest, SpansOfEqualJoinedTextDedup) {
  // One sentence holds the single token "New York" and the two tokens
  // "New" "York": their joined texts are equal, so they are one row.
  AnnotatedCorpus corpus;
  Document doc;
  Sentence s;
  const struct {
    const char* text;
    int head;
  } tokens[] = {{"New York", 1}, {"is", -1}, {"not", 1}, {"New", 4}, {"York", 1}};
  for (const auto& [text, head] : tokens) {
    Token t;
    t.text = text;
    t.head = head;
    s.tokens.push_back(t);
  }
  s.tokens[1].pos = PosTag::kVerb;
  s.entities = {{0, 0, EntityType::kGpe}, {3, 4, EntityType::kGpe}};
  for (int i : {0, 3, 4}) {
    s.tokens[static_cast<size_t>(i)].etype = EntityType::kGpe;
    s.tokens[static_cast<size_t>(i)].entity_id = i == 0 ? 0 : 1;
  }
  s.ComputeTreeInfo();
  doc.sentences.push_back(s);
  corpus.docs.push_back(doc);
  corpus.RebuildRefs();
  Pipeline pipeline;
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  for (bool use_index : {true, false}) {
    EngineOptions options;
    options.use_index = use_index;
    auto result =
        engine.ExecuteText(R"(extract e:GPE from "t" if ())", options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u) << "use_index=" << use_index;
    EXPECT_EQ(result->rows[0].values[0], "New York");
  }
}

TEST(EngineTest, EqualValueTextScoresPerDocument) {
  // "China" in two documents: the aggregate scores it against each
  // document on its own (near: 1 / (1 + tokens between)). A clause with a
  // value-only part next to the document part is no value filter: its
  // scores stay per document and go through the shared cache.
  World w({{"d1", "China is a large country."}, {"d2", "China is a country."}});
  const std::pair<const char*, double> clauses[] = {
      {R"((a near "country" {1.0}))", 0.0},
      {R"((a near "country" {1}) or (str(a) mentions "Chin" {1}))", 1.0},
  };
  for (const auto& [clause, value_part] : clauses) {
    SCOPED_TRACE(clause);
    const std::string query = std::string(R"(
        extract a:GPE from "t" if ()
        satisfying a )") + clause + " with threshold 0.1";
    ScoreCache cache;
    EngineOptions shared;
    shared.score_cache = &cache;
    for (const EngineOptions& options : {EngineOptions(), shared, shared}) {
      auto result = w.engine->ExecuteText(query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result->rows.size(), 2u);
      EXPECT_EQ(result->rows[0].values[0], "China");
      EXPECT_EQ(result->rows[1].values[0], "China");
      EXPECT_NE(result->rows[0].doc, result->rows[1].doc);
      EXPECT_DOUBLE_EQ(result->rows[0].scores[0], 1.0 / 4 + value_part);
      EXPECT_DOUBLE_EQ(result->rows[1].scores[0], 1.0 / 3 + value_part);
      EXPECT_EQ(result->filter_values_decided, 0u);
    }
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 2u);
  }
}

TEST(EngineTest, UnreachedSimilarToTargetRejectsEveryVerb) {
  // DateOfBirth's shape with a SimilarTo target no verb comes near: the
  // value filter rejects every verb text once, so no sentence binds a row
  // and the shared score cache is never probed.
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 40, .seed = 35});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  const std::string shape = R"(
      extract a:Person, b:Date from "wiki" if ( /ROOT:{ v = verb })
      satisfying v (v SimilarTo "%s" {1}) with threshold 0.9)";
  auto with_target = [&](const std::string& target) {
    std::string text = shape;
    text.replace(text.find("%s"), 2, target);
    return text;
  };
  for (bool use_index : {true, false}) {
    SCOPED_TRACE(use_index ? "use_index" : "full scan");
    ScoreCache cache;
    EngineOptions options;
    options.use_index = use_index;
    options.score_cache = &cache;
    auto none = engine.ExecuteText(with_target("xylophone"), options);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->rows.empty());
    EXPECT_GT(none->filter_values_decided, 0u);
    EXPECT_EQ(none->filter_values_rejected, none->filter_values_decided);
    // "born" passes its own verb, whose rows carry the filter's score.
    auto born = engine.ExecuteText(with_target("born"), options);
    ASSERT_TRUE(born.ok()) << born.status().ToString();
    ASSERT_FALSE(born->rows.empty());
    for (const ResultRow& row : born->rows) {
      EXPECT_EQ(row.scores, std::vector<double>{1.0});
    }
    EXPECT_LT(born->filter_values_rejected, born->filter_values_decided);
    EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
  }
}

TEST(EngineTest, ValueFilterRunsBeforeTheRowCap) {
  // max_rows caps pending rows, and a value-only excluding condition
  // rejects bindings before they become pending: the cap fills with
  // surviving rows. Charged before the filter, the two "ate" rows would
  // have taken the cap and left one row.
  World w({{"d", "Anna ate a pie. Bob baked bread. Carl ate cake. Dana "
                 "cooked soup. Eve baked a tart."}});
  const char* query = R"(
      extract v:Str from "t" if ( /ROOT:{ v = //verb })
      excluding (str(v) mentions "ate"))";
  for (bool early_terminate : {true, false}) {
    for (bool use_index : {true, false}) {
      EngineOptions options;
      options.max_rows = 2;
      options.early_terminate = early_terminate;
      options.use_index = use_index;
      auto result = w.engine->ExecuteText(query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      std::vector<std::string> values;
      for (const ResultRow& row : result->rows) values.push_back(row.values[0]);
      EXPECT_EQ(values, (std::vector<std::string>{"baked", "cooked"}))
          << "early_terminate=" << early_terminate
          << " use_index=" << use_index;
    }
  }
}

TEST(EngineTest, ExcludingRowsIndependentOfScoreCache) {
  World w({{"d1", "Anna visited the Brim Cafe in Portland. Later Anna met "
                  "Bob at the Brim Cafe."},
           {"d2", "Carl visited the Brim Cafe and the Blue Cafe."}});
  const std::string kept = R"(
      extract x:Entity from "t" if ()
      satisfying x (str(x) mentions "a" {1}) with threshold 0.5)";
  const std::string query = kept + R"( excluding (str(x) matches "Brim Cafe"))";
  auto all = w.engine->ExecuteText(kept);
  auto none = w.engine->ExecuteText(query);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  // The excluding condition removes the three "Brim Cafe" rows and only them.
  size_t brim = 0;
  for (const ResultRow& row : all->rows) brim += row.values[0] == "Brim Cafe";
  EXPECT_EQ(brim, 3u);
  ASSERT_EQ(none->rows.size() + brim, all->rows.size());
  ASSERT_FALSE(none->rows.empty());
  for (const ResultRow& row : none->rows) EXPECT_NE(row.values[0], "Brim Cafe");
  ScoreCache cache;
  EngineOptions shared;
  shared.score_cache = &cache;
  for (const char* pass : {"cold", "warm"}) {
    auto cached = w.engine->ExecuteText(query, shared);
    ASSERT_TRUE(cached.ok()) << cached.status().ToString();
    ExpectIdenticalResults(*none, *cached, pass);
  }
}

// DateOfBirth's shape (a node variable under a value-only SimilarTo
// clause) and the cafe shape (an entity variable under nine value-only
// excluding conditions) over one wiki corpus.
struct FilteredWiki {
  Pipeline pipeline;
  AnnotatedCorpus corpus;
  std::unique_ptr<ShardedKokoIndex> index;
  EmbeddingModel embeddings;
  std::unique_ptr<Engine> engine;

  FilteredWiki() {
    corpus = pipeline.AnnotateCorpus(
        GenerateWikiArticles({.num_articles = 40, .seed = 35}));
    index = ShardedKokoIndex::Build(corpus, 2);
    engine = std::make_unique<Engine>(
        &corpus, index.get(), &embeddings,
        &const_cast<const Pipeline&>(pipeline).recognizer());
  }

  static std::string DateOfBirth(const char* target, double threshold) {
    return std::string(R"(
        extract a:Person, b:Date from "wiki" if ( /ROOT:{ v = verb })
        satisfying v (v SimilarTo ")") +
           target + "\" {1}) with threshold " + std::to_string(threshold);
  }
};

TEST(EngineTest, FilterVariantsShareOneScoreCache) {
  // Queries that differ only in a threshold, a condition's text or
  // use_descriptors key different verdict tables in one cache, and each
  // keeps the rows of its own uncached full scan. The second round decides
  // no value again.
  FilteredWiki w;
  struct Variant {
    std::string query;
    bool use_descriptors;
  };
  const std::vector<Variant> variants = {
      {FilteredWiki::DateOfBirth("born", 0.9), true},
      {FilteredWiki::DateOfBirth("born", 1.5), true},
      {FilteredWiki::DateOfBirth("married", 0.9), true},
      {FilteredWiki::DateOfBirth("born", 0.9), false},
      {replay::CafeQueryText(0.0), true},
      {replay::CafeQueryText(0.1), true},
      {R"(extract x:Entity from "wiki" if ()
          excluding (str(x) matches "[A-Z][a-z]+"))",
       true},
      {R"(extract x:Entity from "wiki" if ()
          excluding (str(x) matches "[A-Z][a-z]+ [A-Z][a-z]+"))",
       true},
  };
  std::vector<QueryResult> want;
  for (const Variant& v : variants) {
    EngineOptions full;
    full.use_index = false;
    full.use_descriptors = v.use_descriptors;
    auto result = w.engine->ExecuteText(v.query, full);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    want.push_back(std::move(*result));
  }
  // Each pair of variants differs in its rows, so a shared verdict would
  // show.
  for (auto [a, b] : {std::pair{0, 1}, {0, 2}, {4, 5}, {6, 7}}) {
    EXPECT_NE(want[a].rows.size(), want[b].rows.size()) << a << " " << b;
  }
  ScoreCache cache;
  for (int round = 0; round < 2; ++round) {
    for (size_t i = 0; i < variants.size(); ++i) {
      const std::string context =
          "variant " + std::to_string(i) + " round " + std::to_string(round);
      EngineOptions options;
      options.use_descriptors = variants[i].use_descriptors;
      options.score_cache = &cache;
      auto got = w.engine->ExecuteText(variants[i].query, options);
      ASSERT_TRUE(got.ok()) << context;
      ExpectSameRows(want[i], *got, context);
      // Both cafe thresholds gate the clause that reads the document, so
      // they share the excluding conditions' table.
      if (round == 1 || i == 5) {
        EXPECT_EQ(got->filter_values_decided, 0u) << context;
      } else {
        EXPECT_GT(got->filter_values_decided, 0u) << context;
      }
    }
  }
  EXPECT_EQ(cache.stats().verdict_tables, variants.size() - 1);
}

TEST(EngineTest, StoredEngineSharesVerdictsWithResident) {
  // Value ids come from the resident corpus, and an engine over a document
  // store binds the same ids from its deserialised copies: through one
  // cache either engine reads the verdicts the other stored.
  FilteredWiki w;
  const DocumentStore store = DocumentStore::FromCorpus(w.corpus);
  Engine stored(&w.corpus, w.index.get(), &w.embeddings,
                &const_cast<const Pipeline&>(w.pipeline).recognizer());
  stored.set_document_store(&store);
  for (const std::string& query :
       {FilteredWiki::DateOfBirth("born", 0.9), replay::CafeQueryText(0.0)}) {
    auto want = w.engine->ExecuteText(query);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ASSERT_FALSE(want->rows.empty());
    auto alone = stored.ExecuteText(query);
    ASSERT_TRUE(alone.ok()) << alone.status().ToString();
    ExpectIdenticalResults(*want, *alone, "stored, no cache");
    ScoreCache cache;
    EngineOptions shared;
    shared.score_cache = &cache;
    const Engine* order[] = {&stored, w.engine.get(), &stored};
    for (size_t i = 0; i < 3; ++i) {
      auto got = order[i]->ExecuteText(query, shared);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectIdenticalResults(*want, *got, "shared cache, run " + std::to_string(i));
      EXPECT_EQ(got->filter_values_decided == 0, i > 0) << i;
    }
  }
}

TEST(EngineTest, PathRegexStepMatchesFullScan) {
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 40, .seed = 35});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  auto run = [&](const char* query, bool use_index) {
    EngineOptions options;
    options.use_index = use_index;
    auto result = engine.ExecuteText(query, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  };
  const char* any_dobj = R"(
      extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))";
  const char* capitalised = R"(
      extract b:Str from "t" if (
        /ROOT:{ a = //verb, b = a/dobj[@regex="[A-Z][a-z]+"] }))";
  const char* broken = R"(
      extract b:Str from "t" if (
        /ROOT:{ a = //verb, b = a/dobj[@regex="([A-Z]"] }))";
  QueryResult all = run(any_dobj, false);
  QueryResult want = run(capitalised, false);
  QueryResult got = run(capitalised, true);
  ASSERT_FALSE(want.rows.empty());
  EXPECT_LT(want.rows.size(), all.rows.size());
  for (const ResultRow& row : want.rows) {
    EXPECT_TRUE(row.values[0][0] >= 'A' && row.values[0][0] <= 'Z')
        << row.values[0];
  }
  ExpectSameRows(want, got, "@regex step");
  // A pattern that does not compile matches no token.
  EXPECT_TRUE(run(broken, false).rows.empty());
  EXPECT_TRUE(run(broken, true).rows.empty());
}

}  // namespace
}  // namespace koko
