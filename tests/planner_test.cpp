// Planner + streaming suite: cost-based clause planning must never change
// results (only cost), streaming top-k must cut the exact same row stream,
// and the plan cache must hit on repeated query shapes. Carries the
// "planner" ctest label; CI runs it under ASan/TSan/UBSan.

#include "koko/planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "corpus/generators.h"
#include "corpus/query_gen.h"
#include "index/path_lookup.h"
#include "index/sharded_index.h"
#include "koko/compile.h"
#include "koko/engine.h"
#include "koko/explain.h"
#include "koko/parser.h"
#include "nlp/pipeline.h"
#include "replay/workloads.h"
#include "serve/query_service.h"
#include "util/rng.h"

namespace koko {
namespace {

// Asserts that every field of every row (and the row order) is identical.
void ExpectIdenticalResults(const QueryResult& a, const QueryResult& b,
                            const std::string& context) {
  ASSERT_EQ(a.rows.size(), b.rows.size()) << context;
  EXPECT_EQ(a.candidate_sentences, b.candidate_sentences) << context;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].doc, b.rows[i].doc) << context << " row " << i;
    EXPECT_EQ(a.rows[i].sid, b.rows[i].sid) << context << " row " << i;
    EXPECT_EQ(a.rows[i].values, b.rows[i].values) << context << " row " << i;
    EXPECT_EQ(a.rows[i].scores, b.rows[i].scores) << context << " row " << i;
  }
}

// ---- Filtered path lookup -------------------------------------------------

// Filters a path lookup is run with: empty, a singleton, every sid of the
// index's range, and seeded random subsets of it.
std::vector<SidList> LookupFilters(uint32_t begin, uint32_t end,
                                   uint64_t seed) {
  std::vector<SidList> filters;
  filters.emplace_back();
  std::vector<uint32_t> all;
  all.reserve(end - begin);
  for (uint32_t sid = begin; sid < end; ++sid) all.push_back(sid);
  if (!all.empty()) {
    filters.push_back(SidList::FromSorted({all[all.size() / 2]}));
  }
  filters.push_back(SidList::FromSorted(all));
  Rng rng(seed);
  for (double keep : {0.02, 0.2, 0.7}) {
    std::vector<uint32_t> subset;
    for (uint32_t sid : all) {
      if (rng.UniformDouble() < keep) subset.push_back(sid);
    }
    filters.push_back(SidList::FromSorted(std::move(subset)));
  }
  return filters;
}

// The filtered-lookup contract DPLI relies on when it passes its running
// candidate set: KokoPathSidLookup(path, &f) equals the unfiltered lookup
// intersected with f, for every dominant path of the six replay workloads,
// on a one-shard index and on every shard of a 4-shard mapped index.
TEST(PlannerTest, FilteredPathSidLookupIsIntersection) {
  Pipeline pipeline;
  auto workloads =
      replay::BuildAllWorkloads(pipeline, replay::WorkloadOptions());
  ASSERT_TRUE(workloads.ok()) << workloads.status().ToString();
  size_t checked_paths = 0;
  size_t nonempty_hits = 0;
  for (const replay::Workload& workload : *workloads) {
    auto one = ShardedKokoIndex::Build(workload.corpus, 1);
    auto built = ShardedKokoIndex::Build(workload.corpus, 4);
    const std::string path =
        ::testing::TempDir() + "/planner_filter_" + workload.name + ".idx";
    ASSERT_TRUE(built->Save(path).ok());
    ShardedKokoIndex::LoadOptions map_load;
    map_load.mode = LoadMode::kMap;
    auto mapped = ShardedKokoIndex::Load(path, map_load);
    std::remove(path.c_str());
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

    struct Target {
      const KokoIndex* index;
      uint32_t begin;
      uint32_t end;
    };
    std::vector<Target> targets = {
        {&one->shard(0), 0,
         static_cast<uint32_t>(workload.corpus.NumSentences())}};
    for (size_t s = 0; s < (*mapped)->num_shards(); ++s) {
      targets.push_back({&(*mapped)->shard(s), (*mapped)->shard_range(s).begin,
                         (*mapped)->shard_range(s).end});
    }
    for (const replay::WorkloadQuery& query : workload.queries) {
      auto cq = CompileQuery(query.query);
      ASSERT_TRUE(cq.ok()) << workload.name << "/" << query.name;
      for (int dom : cq->DominantPathVars()) {
        const PathQuery& abs = cq->vars[static_cast<size_t>(dom)].abs_path;
        for (size_t t = 0; t < targets.size(); ++t) {
          const Target& target = targets[t];
          const std::string context = workload.name + "/" + query.name + " " +
                                      abs.ToString() + " target " +
                                      std::to_string(t);
          const PathSidLookupResult unfiltered =
              KokoPathSidLookup(*target.index, abs, nullptr);
          for (const SidList& filter :
               LookupFilters(target.begin, target.end, 97 + t)) {
            const PathSidLookupResult got =
                KokoPathSidLookup(*target.index, abs, &filter);
            ASSERT_EQ(got.unconstrained, unfiltered.unconstrained) << context;
            if (got.unconstrained) continue;
            EXPECT_EQ(got.sids, Intersect(unfiltered.sids, filter))
                << context << " |filter|=" << filter.size();
            if (!got.sids.empty()) ++nonempty_hits;
          }
          ++checked_paths;
        }
      }
    }
  }
  EXPECT_GT(checked_paths, 0u);
  EXPECT_GT(nonempty_hits, 0u);
}

// ---- Plan construction ------------------------------------------------------

TEST(PlannerTest, PlanOrdersAtomsBySelectivity) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 100, .seed = 62});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto built = ShardedKokoIndex::Build(corpus, 1);
  const KokoIndex* index = &built->shard(0);

  auto query = ParseQuery(R"(
      extract e:Entity, b:Str from "t" if (
        /ROOT:{ a = //verb, b = a/dobj, c = b//"happy" }
        (b) in (e)))");
  ASSERT_TRUE(query.ok());
  auto cq = CompileQuery(*query);
  ASSERT_TRUE(cq.ok());

  auto plan = BuildQueryPlan(*index, *cq, PlannerOptions());
  ASSERT_TRUE(plan->pruned);
  ASSERT_GE(plan->atoms.size(), 2u);
  for (size_t i = 1; i < plan->atoms.size(); ++i) {
    EXPECT_LE(plan->atoms[i - 1].estimate, plan->atoms[i].estimate);
  }
  EXPECT_EQ(plan->fingerprint, PlanFingerprint(*cq));
  EXPECT_EQ(plan->index_sentences, index->stats().num_sentences);

  // The compile-order plan holds the same atoms; the cost order is exactly
  // its stable sort by estimate.
  auto fixed = BuildQueryPlan(*index, *cq, PlannerOptions(),
                              /*order_by_cost=*/false);
  std::vector<PlannedAtom> sorted = fixed->atoms;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const PlannedAtom& a, const PlannedAtom& b) {
                     return a.estimate < b.estimate;
                   });
  ASSERT_EQ(sorted.size(), plan->atoms.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i].label, plan->atoms[i].label) << "atom " << i;
  }
}

// Cost order must change only the cost of DPLI: the fixed-order and the
// cost-ordered plans yield the same candidate sids, element for element,
// on a one-shard index and on every shard of a four-shard one.
TEST(PlannerTest, FixedAndCostOrderCandidatesMatch) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 150, .seed = 62});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto one = ShardedKokoIndex::Build(corpus, 1);
  auto sharded = ShardedKokoIndex::Build(corpus, 4);
  std::vector<const KokoIndex*> targets = {&one->shard(0)};
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    targets.push_back(&sharded->shard(s));
  }

  std::vector<std::pair<std::string, Query>> queries;
  for (const char* text : {
           R"(extract e:Entity, b:Str from "t" if (
                /ROOT:{ a = //verb, b = a/dobj, c = b//"happy" }
                (b) in (e)))",
           R"(extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))"}) {
    auto query = ParseQuery(text);
    ASSERT_TRUE(query.ok()) << text;
    queries.emplace_back(text, std::move(*query));
  }
  for (auto& bench : GenerateSyntheticSpanBenchmark(
           corpus, {.queries_per_setting = 2, .seed = 65})) {
    queries.emplace_back(bench.name, std::move(bench.query));
  }
  size_t pruned_runs = 0;
  size_t reordered_runs = 0;
  for (const auto& [name, query] : queries) {
    auto cq = CompileQuery(query);
    ASSERT_TRUE(cq.ok()) << name;
    for (size_t t = 0; t < targets.size(); ++t) {
      const KokoIndex& index = *targets[t];
      auto cost = BuildQueryPlan(index, *cq, PlannerOptions());
      auto fixed = BuildQueryPlan(index, *cq, PlannerOptions(),
                                  /*order_by_cost=*/false);
      PlannedCandidates want = CollectPlannedCandidates(index, *cq, *fixed);
      PlannedCandidates got = CollectPlannedCandidates(index, *cq, *cost);
      EXPECT_EQ(want.pruned, got.pruned) << name << " target " << t;
      EXPECT_EQ(want.sids, got.sids) << name << " target " << t;
      if (want.pruned) ++pruned_runs;
      for (size_t i = 0; i < fixed->atoms.size(); ++i) {
        if (fixed->atoms[i].label != cost->atoms[i].label) {
          ++reordered_runs;
          break;
        }
      }
    }
  }
  // The two arms really ran different orders somewhere.
  EXPECT_GT(pruned_runs, 0u);
  EXPECT_GT(reordered_runs, 0u);
}

TEST(PlannerTest, PlanFingerprintDistinguishesClauseContent) {
  auto compile = [](const char* text) {
    auto query = ParseQuery(text);
    EXPECT_TRUE(query.ok());
    auto cq = CompileQuery(*query);
    EXPECT_TRUE(cq.ok());
    return *cq;
  };
  CompiledQuery a = compile(
      R"(extract b:Str from "t" if ( /ROOT:{ v = //verb, b = v/dobj }))");
  CompiledQuery b = compile(
      R"(extract b:Str from "t" if ( /ROOT:{ v = //verb, b = v/nsubj }))");
  EXPECT_EQ(PlanFingerprint(a), PlanFingerprint(a));
  EXPECT_NE(PlanFingerprint(a), PlanFingerprint(b));
}

// ---- Plan cache -------------------------------------------------------------

TEST(PlannerTest, PlanCacheHitMissAndClear) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 60, .seed = 63});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto built = ShardedKokoIndex::Build(corpus, 1);
  const KokoIndex* index = &built->shard(0);
  auto cq = CompileQuery(*ParseQuery(
      R"(extract b:Str from "t" if ( /ROOT:{ v = //verb, b = v/dobj }))"));
  ASSERT_TRUE(cq.ok());

  PlanCache cache;
  PlannerOptions opts;
  auto first = GetOrBuildPlan(*index, *cq, opts, &cache, 0);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 1u);
  auto second = GetOrBuildPlan(*index, *cq, opts, &cache, 0);
  EXPECT_EQ(second.get(), first.get());  // shared, not rebuilt
  EXPECT_EQ(cache.stats().hits, 1u);

  // Every shard salt is a different plan key.
  GetOrBuildPlan(*index, *cq, opts, &cache, 1);
  EXPECT_EQ(cache.stats().misses, 2u);
  auto third = GetOrBuildPlan(*index, *cq, opts, &cache, 2);
  EXPECT_NE(third.get(), first.get());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.size(), 3u);
  GetOrBuildPlan(*index, *cq, opts, &cache, 1);
  EXPECT_EQ(cache.stats().hits, 2u);

  // Clear() invalidates every plan and resets the counters.
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  GetOrBuildPlan(*index, *cq, opts, &cache, 0);
  EXPECT_EQ(cache.stats().misses, 1u);
}

// Runs `query` on a one- and a two-shard engine over a small corpus, once
// without a plan cache and once on a cache warmed by `warm`: the cached run
// must return the uncached rows and candidates, and hit the cache once per
// shard exactly when `shares_plan`.
void ExpectWarmedCacheAnswers(const char* warm, const char* query,
                              bool shares_plan) {
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(
      {{"t", "Anna ate a pie. Yesterday Anna ate a cake. Bob saw Anna."},
       {"t", "Later Anna baked bread. Anna slept."}});
  EmbeddingModel embeddings;
  for (size_t k : {size_t{1}, size_t{2}}) {
    const std::string context = "K=" + std::to_string(k);
    auto index = ShardedKokoIndex::Build(corpus, k);
    Engine engine(&corpus, index.get(), &embeddings,
                  &const_cast<const Pipeline&>(pipeline).recognizer());
    auto want = engine.ExecuteText(query);
    ASSERT_TRUE(want.ok()) << context;
    ASSERT_GT(want->rows.size(), 0u) << context;

    PlanCache cache;
    EngineOptions cached;
    cached.plan_cache = &cache;
    ASSERT_TRUE(engine.ExecuteText(warm, cached).ok()) << context;
    const uint64_t hits = cache.stats().hits;
    auto got = engine.ExecuteText(query, cached);
    ASSERT_TRUE(got.ok()) << context;
    EXPECT_EQ(cache.stats().hits, hits + (shares_plan ? k : 0)) << context;
    ExpectIdenticalResults(*want, *got, context);
  }
}

// A and B have equal prunable atoms (the path //verb and the literal
// "Anna") under different variable layouts: A's var 1 is the literal, B's
// var 1 is an elastic span and its literal is var 2. They share one
// fingerprint, so a shared cache hands B the plan built for A; the plan
// carries its own atoms, so it answers B as a plan built for B would.
constexpr char kLiteralQueryA[] =
    R"(extract x:Str from "t" if (/ROOT:{ v = //verb, x = "Anna" + v }))";
constexpr char kLiteralQueryB[] =
    R"(extract x:Str from "t" if (/ROOT:{ v = //verb, x = ^ + "Anna" + v }))";

TEST(PlannerTest, CachedPlanAnswersQueryWithOtherVariableLayout) {
  auto a = CompileQuery(*ParseQuery(kLiteralQueryA));
  auto b = CompileQuery(*ParseQuery(kLiteralQueryB));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->vars[1].kind, CompiledVar::Kind::kLiteral);
  ASSERT_EQ(b->vars[1].kind, CompiledVar::Kind::kElastic);
  EXPECT_EQ(PlanFingerprint(*a), PlanFingerprint(*b));
  ExpectWarmedCacheAnswers(kLiteralQueryA, kLiteralQueryB,
                           /*shares_plan=*/true);
}

// X's path is one step whose word is `ate"/"pie`; Y's is the two word steps
// "ate" and "pie". The printer escapes the quotes, so they print apart, and
// their atoms differ, so they must not share a plan: X's plan looks up a
// word no sentence has.
constexpr char kLookalikePathX[] =
    R"(extract v:Str from "t" if (/ROOT:{ v = //"ate\"/\"pie" }))";
constexpr char kLookalikePathY[] =
    R"(extract v:Str from "t" if (/ROOT:{ v = //"ate"/"pie" }))";

TEST(PlannerTest, CachedPlanNotSharedByLookalikePaths) {
  auto x = CompileQuery(*ParseQuery(kLookalikePathX));
  auto y = CompileQuery(*ParseQuery(kLookalikePathY));
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  ASSERT_EQ(x->vars[0].abs_path.steps.size(), 1u);
  ASSERT_EQ(y->vars[0].abs_path.steps.size(), 2u);
  ASSERT_NE(x->vars[0].abs_path.ToString(), y->vars[0].abs_path.ToString());
  EXPECT_NE(PlanFingerprint(*x), PlanFingerprint(*y));
  ExpectWarmedCacheAnswers(kLookalikePathX, kLookalikePathY,
                           /*shares_plan=*/false);
}

// ---- Engine parity: planner x streaming x sharding x caps ------------------

TEST(PlannerTest, PlannerAndStreamingParityOneShard) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 150, .seed = 64});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  auto queries = GenerateSyntheticSpanBenchmark(
      corpus, {.queries_per_setting = 3, .seed = 65});
  ASSERT_FALSE(queries.empty());

  const size_t kUnlimited = std::numeric_limits<size_t>::max();
  for (const auto& bench : queries) {
    EngineOptions naive;
    naive.use_planner = false;
    naive.early_terminate = false;
    auto want = engine.Execute(bench.query, naive);
    ASSERT_TRUE(want.ok()) << bench.name;
    for (size_t cap : {size_t{0}, size_t{1}, size_t{7}, size_t{23}, kUnlimited}) {
      EngineOptions naive_capped = naive;
      naive_capped.max_rows = cap;
      auto truncate = engine.Execute(bench.query, naive_capped);
      ASSERT_TRUE(truncate.ok());
      EngineOptions planned;
      planned.max_rows = cap;
      auto got = engine.Execute(bench.query, planned);
      ASSERT_TRUE(got.ok());
      ExpectIdenticalResults(*truncate, *got,
                             bench.name + " cap=" + std::to_string(cap));
      EXPECT_LE(got->scanned_candidates, got->candidate_sentences);
      if (cap != kUnlimited) {
        EXPECT_EQ(got->early_terminated,
                  got->scanned_candidates < got->candidate_sentences);
      } else {
        EXPECT_FALSE(got->early_terminated);
      }
      if (got->candidate_sentences > 0) {
        EXPECT_NE(got->plan, nullptr);
      }
    }
  }
}

TEST(PlannerTest, PlannerAndStreamingParitySharded) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 150, .seed = 66});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto one_index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine one(&corpus, one_index.get(), &embeddings,
             &const_cast<const Pipeline&>(pipeline).recognizer());
  auto queries = GenerateSyntheticSpanBenchmark(
      corpus, {.queries_per_setting = 2, .seed = 67});
  ASSERT_FALSE(queries.empty());

  for (size_t k : {size_t{2}, size_t{4}, size_t{7}}) {
    auto sharded = ShardedKokoIndex::Build(corpus, k);
    Engine shard_engine(&corpus, sharded.get(), &embeddings,
                        &const_cast<const Pipeline&>(pipeline).recognizer());
    PlanCache cache;
    for (const auto& bench : queries) {
      for (size_t cap : {size_t{5}, size_t{40},
                         std::numeric_limits<size_t>::max()}) {
        EngineOptions naive;
        naive.use_planner = false;
        naive.early_terminate = false;
        naive.max_rows = cap;
        auto want = one.Execute(bench.query, naive);
        ASSERT_TRUE(want.ok()) << bench.name;
        EngineOptions planned;
        planned.max_rows = cap;
        planned.plan_cache = &cache;
        auto got = shard_engine.Execute(bench.query, planned);
        ASSERT_TRUE(got.ok()) << bench.name;
        ExpectIdenticalResults(*want, *got,
                               bench.name + " K=" + std::to_string(k) +
                                   " cap=" + std::to_string(cap));
      }
    }
    // Per-shard plans (one salt per shard) populated the cache, and the
    // repeat sweep over the same queries hit it.
    EXPECT_GT(cache.stats().entries, 0u);
    EXPECT_GT(cache.stats().hits, 0u);
  }
}

// ---- Streaming sink + early termination -------------------------------------

TEST(PlannerTest, SinkReceivesRowsInResultOrder) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 80, .seed = 68});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  const char* query =
      "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";
  for (size_t cap : {size_t{10}, std::numeric_limits<size_t>::max()}) {
    std::vector<ResultRow> streamed;
    RowSink sink = [&](const ResultRow& row) { streamed.push_back(row); };
    EngineOptions options;
    options.max_rows = cap;
    options.sink = &sink;
    auto result = engine.ExecuteText(query, options);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(streamed.size(), result->rows.size());
    for (size_t i = 0; i < streamed.size(); ++i) {
      EXPECT_EQ(streamed[i].doc, result->rows[i].doc);
      EXPECT_EQ(streamed[i].sid, result->rows[i].sid);
      EXPECT_EQ(streamed[i].values, result->rows[i].values);
      EXPECT_EQ(streamed[i].scores, result->rows[i].scores);
    }
  }
}

TEST(PlannerTest, EarlyTerminationSkipsTailCandidates) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 200, .seed = 69});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  // A broad query (every sentence has a verb) with a small cap: the scan
  // must stop early, far before the last candidate.
  const char* query =
      "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";
  for (bool with_sink : {false, true}) {
    const std::string context = with_sink ? "sink" : "no sink";
    std::vector<ResultRow> streamed;
    RowSink sink = [&](const ResultRow& row) { streamed.push_back(row); };
    EngineOptions options;
    options.max_rows = 5;
    if (with_sink) options.sink = &sink;
    auto result = engine.ExecuteText(query, options);
    ASSERT_TRUE(result.ok()) << context;
    EXPECT_TRUE(result->early_terminated) << context;
    EXPECT_LT(result->scanned_candidates, result->candidate_sentences)
        << context;
    EXPECT_GT(result->scanned_candidates, 0u) << context;
    if (with_sink) {
      EXPECT_EQ(streamed.size(), result->rows.size()) << context;
    }

    // The full-then-truncate baseline returns the same rows and reports
    // every candidate as scanned, with or without a sink.
    streamed.clear();
    EngineOptions baseline = options;
    baseline.early_terminate = false;
    auto full = engine.ExecuteText(query, baseline);
    ASSERT_TRUE(full.ok()) << context;
    EXPECT_FALSE(full->early_terminated) << context;
    EXPECT_EQ(full->scanned_candidates, full->candidate_sentences) << context;
    ExpectIdenticalResults(*full, *result,
                           "early-termination parity " + context);
    if (with_sink) {
      EXPECT_EQ(streamed.size(), full->rows.size()) << context;
    }
  }
}

// ---- EXPLAIN ----------------------------------------------------------------

TEST(PlannerTest, ExplainSurfacesPlanAndExecution) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 60, .seed = 70});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  EngineOptions options;
  options.max_rows = 3;
  auto result = engine.ExecuteText(R"(
      extract e:Entity, b:Str from "t" if (
        /ROOT:{ a = //verb, b = a/dobj }
        (b) in (e)))", options);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->plan, nullptr);
  const std::string plan_text = ExplainPlan(*result->plan);
  EXPECT_NE(plan_text.find("clause"), std::string::npos);
  EXPECT_NE(plan_text.find("entity"), std::string::npos);
  EXPECT_EQ(plan_text.find("actual="), std::string::npos);
  const std::string exec_text = ExplainExecution(*result);
  EXPECT_NE(exec_text.find("candidate"), std::string::npos);
  if (result->early_terminated) {
    EXPECT_NE(exec_text.find("early termination"), std::string::npos);
  }

  // Actuals: one accumulator size per executed atom, never above the
  // atom's estimate (an upper bound on its own list), never growing, and
  // ending at the candidate count.
  const std::vector<PlannedAtom>& atoms = result->plan->atoms;
  const std::vector<uint64_t>& actuals = result->plan_actuals;
  ASSERT_EQ(actuals.size(), atoms.size());
  for (size_t i = 0; i < actuals.size(); ++i) {
    EXPECT_LE(actuals[i], atoms[i].estimate) << "atom " << i;
    if (i > 0) EXPECT_LE(actuals[i], actuals[i - 1]) << "atom " << i;
    EXPECT_NE(exec_text.find("est=" + std::to_string(atoms[i].estimate)),
              std::string::npos);
    EXPECT_NE(exec_text.find("actual=" + std::to_string(actuals[i])),
              std::string::npos);
  }
  EXPECT_EQ(actuals.back(), result->candidate_sentences);

  // An absent literal short-circuits: the atoms after it report skipped.
  auto empty = engine.ExecuteText(R"(
      extract e:Entity, b:Str from "t" if (
        /ROOT:{ a = //verb, b = a/dobj, c = b//"zzz-absent" }
        (b) in (e)))");
  ASSERT_TRUE(empty.ok());
  ASSERT_NE(empty->plan, nullptr);
  ASSERT_EQ(empty->plan_actuals.size(), 1u);
  EXPECT_EQ(empty->plan_actuals[0], 0u);
  EXPECT_NE(ExplainExecution(*empty).find("actual=skipped"),
            std::string::npos);

  // Value-only filters: a query without one decides nothing; a SimilarTo
  // clause on the verb decides each distinct verb once.
  EXPECT_NE(exec_text.find("value filters: 0 distinct value(s) decided, 0 "
                           "rejected"),
            std::string::npos);
  auto filtered = engine.ExecuteText(R"(
      extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj })
      satisfying a (a SimilarTo "ate" {1}) with threshold 0.9)");
  ASSERT_TRUE(filtered.ok());
  EXPECT_GT(filtered->filter_values_decided, 0u);
  EXPECT_GT(filtered->filter_values_rejected, 0u);
  EXPECT_LT(filtered->filter_values_rejected, filtered->filter_values_decided);
  EXPECT_NE(ExplainExecution(*filtered)
                .find("value filters: " +
                      std::to_string(filtered->filter_values_decided) +
                      " distinct value(s) decided, " +
                      std::to_string(filtered->filter_values_rejected) +
                      " rejected"),
            std::string::npos);
}

// ---- QueryService integration -----------------------------------------------

TEST(PlannerTest, QueryServiceSurfacesCacheStatsAndStreams) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 80, .seed = 71});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  QueryService::Options options;
  QueryService service(&engine, options);
  const char* query =
      "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";

  auto first = service.Run(query);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(service.stats().plan_cache.misses, 1u);
  EXPECT_EQ(service.stats().plan_cache.entries, 1u);
  auto second = service.Run(query);
  ASSERT_TRUE(second.ok());
  EXPECT_GE(service.stats().plan_cache.hits, 1u);
  ExpectIdenticalResults(*first, *second, "service repeat");

  // Streaming through the service: sink rows equal the returned rows.
  std::vector<ResultRow> streamed;
  RowSink sink = [&](const ResultRow& row) { streamed.push_back(row); };
  auto third = service.Run(std::string_view(query), sink);
  ASSERT_TRUE(third.ok());
  ASSERT_EQ(streamed.size(), third->rows.size());
  for (size_t i = 0; i < streamed.size(); ++i) {
    EXPECT_EQ(streamed[i].sid, third->rows[i].sid);
    EXPECT_EQ(streamed[i].values, third->rows[i].values);
  }
}

}  // namespace
}  // namespace koko
