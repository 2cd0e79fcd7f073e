#include "serve/query_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generators.h"
#include "index/sharded_index.h"
#include "nlp/pipeline.h"

namespace koko {
namespace {

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

// A corpus plus a serial one-shard reference engine and a K-shard engine
// for the service under test.
struct ServeWorld {
  Pipeline pipeline;
  AnnotatedCorpus corpus;
  std::unique_ptr<ShardedKokoIndex> one_index;
  std::unique_ptr<ShardedKokoIndex> sharded_index;
  EmbeddingModel embeddings;
  std::unique_ptr<Engine> one;
  std::unique_ptr<Engine> sharded;

  explicit ServeWorld(size_t shards, int moments = 120, int seed = 71) {
    auto docs = GenerateHappyMoments(
        {.num_moments = moments, .seed = static_cast<uint64_t>(seed)});
    corpus = pipeline.AnnotateCorpus(docs);
    one_index = ShardedKokoIndex::Build(corpus, 1);
    sharded_index = ShardedKokoIndex::Build(corpus, shards);
    const EntityRecognizer& recognizer =
        const_cast<const Pipeline&>(pipeline).recognizer();
    one = std::make_unique<Engine>(&corpus, one_index.get(), &embeddings,
                                   &recognizer);
    sharded = std::make_unique<Engine>(&corpus, sharded_index.get(),
                                       &embeddings, &recognizer);
  }
};

// A mixed workload: path extraction, span alignment, entity + satisfying
// clause (exercises the score cache), and a literal.
std::vector<std::string> MixedWorkload() {
  return {
      R"(extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))",
      R"(extract x:Str from "t" if ( /ROOT:{ v = //verb, x = v + ^ + "." }))",
      R"(extract x:Entity from "t" if ()
         satisfying x (str(x) contains "a" {1}) with threshold 0.5)",
      R"(extract e:Entity from "t" if ()
         satisfying e (e near "happy" {1}) with threshold 0.1)",
      R"(extract b:Str from "t" if ( /ROOT:{ a = //"happy", b = (a.subtree) }))",
  };
}

// One service, one plan cache, two queries with equal prunable atoms under
// different variable layouts (A's var 1 is the literal "Anna", B's var 1 is
// an elastic span): B runs on the plan cached for A and returns exactly
// the rows and candidates of its own run on a fresh service.
TEST(QueryServiceTest, CachedPlanServesQueryWithOtherVariableLayout) {
  const char* query_a =
      R"(extract x:Str from "t" if (/ROOT:{ v = //verb, x = "Anna" + v }))";
  const char* query_b =
      R"(extract x:Str from "t" if (/ROOT:{ v = //verb, x = ^ + "Anna" + v }))";
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
    auto want = QueryService(&engine, QueryService::Options()).Run(query_b);
    ASSERT_TRUE(want.ok()) << context;
    ASSERT_GT(want->rows.size(), 0u) << context;

    QueryService service(&engine, QueryService::Options());
    ASSERT_TRUE(service.Run(query_a).ok()) << context;
    const uint64_t hits = service.stats().plan_cache.hits;
    auto got = service.Run(query_b);
    ASSERT_TRUE(got.ok()) << context;
    EXPECT_EQ(service.stats().plan_cache.hits, hits + k) << context;
    ExpectIdenticalResults(*want, *got, context);
  }
}

// The acceptance bar: M concurrent clients hammering one QueryService get
// byte-identical rows to serial single-query execution, for every index
// shard count.
TEST(QueryServiceTest, ConcurrentClientsMatchSerialByteForByte) {
  const std::vector<std::string> workload = MixedWorkload();
  for (size_t k : {1u, 3u}) {
    ServeWorld world(k);
    // Serial single-query reference: one-shard index, no shared caches.
    std::vector<QueryResult> expected;
    for (const std::string& query : workload) {
      EngineOptions serial;
      serial.max_rows = 20000;
      auto want = world.one->ExecuteText(query, serial);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      expected.push_back(std::move(*want));
    }
    QueryService::Options options;
    options.max_inflight = 3;
    options.engine.max_rows = 20000;
    QueryService service(world.sharded.get(), options,
                         world.sharded_index->num_shards());

    constexpr size_t kClients = 4;
    constexpr size_t kRounds = 2;  // round 2 runs against warm caches
    // Each client runs the whole workload; results are collected per
    // client and compared on the main thread (gtest assertions are not
    // thread-safe).
    std::vector<std::vector<Result<QueryResult>>> got(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (size_t round = 0; round < kRounds; ++round) {
          for (const std::string& query : workload) {
            got[c].push_back(service.Run(query));
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_EQ(got[c].size(), kRounds * workload.size());
      for (size_t i = 0; i < got[c].size(); ++i) {
        const size_t q = i % workload.size();
        ASSERT_TRUE(got[c][i].ok()) << got[c][i].status().ToString();
        ExpectIdenticalResults(expected[q], *got[c][i],
                               "K=" + std::to_string(k) + " client=" +
                                   std::to_string(c) + " call=" +
                                   std::to_string(i));
      }
    }
    QueryService::Stats stats = service.stats();
    EXPECT_EQ(stats.admitted, kClients * kRounds * workload.size());
    EXPECT_EQ(stats.completed, stats.admitted);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_LE(stats.peak_inflight, options.max_inflight);
  }
}

TEST(QueryServiceTest, ConcurrentClientsOverMappedIndexMatchSerial) {
  // Lifetime + concurrency over the zero-copy load: many clients hammer a
  // QueryService whose engine reads a kMap-loaded sharded index. Queries
  // on different client threads read the shared mapping concurrently;
  // results must stay byte-identical to serial execution over the built
  // index. Runs under TSan in CI —
  // mapped postings are immutable shared state, so there is nothing to
  // race on.
  ServeWorld world(/*shards=*/3, /*moments=*/100, /*seed=*/73);
  std::string path = ::testing::TempDir() + "/query_service_mmap_test.bin";
  ASSERT_TRUE(world.sharded_index->Save(path).ok());
  ShardedKokoIndex::LoadOptions load_options;
  load_options.mode = LoadMode::kMap;
  auto mapped = ShardedKokoIndex::Load(path, load_options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE((*mapped)->mapped());
  // The mapping must outlive the file: queries keep working after unlink.
  std::remove(path.c_str());
  const EntityRecognizer& recognizer =
      const_cast<const Pipeline&>(world.pipeline).recognizer();
  Engine engine(&world.corpus, mapped->get(), &world.embeddings, &recognizer);

  const std::vector<std::string> workload = MixedWorkload();
  std::vector<QueryResult> expected;
  for (const std::string& query : workload) {
    EngineOptions serial;
    serial.max_rows = 20000;
    auto want = world.one->ExecuteText(query, serial);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    expected.push_back(std::move(*want));
  }

  QueryService::Options options;
  options.max_inflight = 3;
  options.engine.max_rows = 20000;
  QueryService service(&engine, options, (*mapped)->num_shards());
  constexpr size_t kClients = 4;
  constexpr size_t kRounds = 2;
  std::vector<std::vector<Result<QueryResult>>> got(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (const std::string& query : workload) {
          got[c].push_back(service.Run(query));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), kRounds * workload.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      ASSERT_TRUE(got[c][i].ok()) << got[c][i].status().ToString();
      ExpectIdenticalResults(expected[i % workload.size()], *got[c][i],
                             "mapped client=" + std::to_string(c) +
                                 " call=" + std::to_string(i));
    }
  }
  EXPECT_EQ(service.stats().completed, kClients * kRounds * workload.size());
}

TEST(QueryServiceTest, MaxRowsTruncationMatchesSerial) {
  ServeWorld world(/*shards=*/4, /*moments=*/150, /*seed=*/72);
  const std::string query =
      R"(extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))";
  for (size_t cap : {0u, 1u, 7u, 23u}) {
    EngineOptions serial;
    serial.max_rows = cap;
    auto want = world.one->ExecuteText(query, serial);
    ASSERT_TRUE(want.ok());

    QueryService::Options options;
    options.max_inflight = 2;
    options.engine.max_rows = cap;
    QueryService service(world.sharded.get(), options, 4);
    std::vector<std::vector<Result<QueryResult>>> got(3);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < got.size(); ++c) {
      clients.emplace_back(
          [&, c] { got[c].push_back(service.Run(query)); });
    }
    for (std::thread& t : clients) t.join();
    for (size_t c = 0; c < got.size(); ++c) {
      ASSERT_TRUE(got[c][0].ok());
      ExpectIdenticalResults(*want, *got[c][0],
                             "cap=" + std::to_string(cap) + " client=" +
                                 std::to_string(c));
    }
  }
}

TEST(QueryServiceTest, ParseErrorsDoNotConsumeAdmission) {
  ServeWorld world(/*shards=*/1, /*moments=*/20);
  QueryService::Options options;
  QueryService service(world.sharded.get(), options, 1);
  auto bad = service.Run("this is not a koko query");
  EXPECT_FALSE(bad.ok());
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.admitted, 0u);
  EXPECT_EQ(stats.completed, 0u);
}

// Threads of this process, or 0 where /proc is absent.
size_t ProcessThreads() {
  std::error_code error;
  std::filesystem::directory_iterator tasks("/proc/self/task", error);
  if (error) return 0;
  return static_cast<size_t>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

// Queries run on their callers' threads: building a service with default
// options and running a query through it starts no thread. One shard, so
// the index build starts none either. The count may only drop, as a thread
// an earlier test joined can linger in /proc for a moment after the join.
TEST(QueryServiceTest, ServingStartsNoThread) {
  ServeWorld world(/*shards=*/1, /*moments=*/30);
  const size_t before = ProcessThreads();
  if (before == 0) GTEST_SKIP() << "/proc/self/task is not readable";
  QueryService service(world.sharded.get(), QueryService::Options(), 1);
  auto result = service.Run(MixedWorkload().front());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(ProcessThreads(), before);
}

// ---- Score cache ------------------------------------------------------------

TEST(QueryServiceTest, ScoreCacheWarmsAcrossQueries) {
  ServeWorld world(/*shards=*/2);
  const std::string query = R"(
      extract e:Entity from "t" if ()
      satisfying e (e near "happy" {1}) with threshold 0.1)";
  QueryService::Options options;
  QueryService service(world.sharded.get(), options, 2);

  auto cold = service.Run(query);
  ASSERT_TRUE(cold.ok());
  ScoreCache::Stats after_cold = service.score_cache().stats();
  EXPECT_GT(after_cold.entries, 0u);  // scores persisted past the query

  auto warm = service.Run(query);
  ASSERT_TRUE(warm.ok());
  ScoreCache::Stats after_warm = service.score_cache().stats();
  // The repeat run hit the persistent cache instead of recomputing: hits
  // grew, no new misses, no new entries.
  EXPECT_GT(after_warm.hits, after_cold.hits);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.entries, after_cold.entries);
  // And warm results are byte-identical to cold ones.
  ExpectIdenticalResults(*cold, *warm, "warm vs cold");
}

TEST(ScoreCacheTest, LookupInsertAndStats) {
  ScoreCache cache;
  EXPECT_EQ(cache.Lookup(1, 2, "value"), std::nullopt);
  cache.Insert(1, 2, "value", 0.75);
  auto hit = cache.Lookup(1, 2, "value");
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(*hit, 0.75);
  // Distinct clause keys / docs / values are distinct entries.
  EXPECT_EQ(cache.Lookup(9, 2, "value"), std::nullopt);
  EXPECT_EQ(cache.Lookup(1, 3, "value"), std::nullopt);
  EXPECT_EQ(cache.Lookup(1, 2, "other"), std::nullopt);
  ScoreCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ScoreCacheTest, ClauseFingerprintSeparatesClauses) {
  SatisfyingClause clause;
  clause.var = "x";
  clause.threshold = 0.5;
  SatCondition cond;
  cond.kind = SatCondition::Kind::kStrContains;
  cond.var = "x";
  cond.text = "Cafe";
  cond.weight = 1.0;
  clause.conditions.push_back(cond);

  const uint64_t base = ScoreCache::ClauseFingerprint(clause);
  EXPECT_EQ(ScoreCache::ClauseFingerprint(clause), base);  // deterministic

  // The threshold gates rows after scoring; it must NOT change the key
  // (same clause content -> shared warm scores).
  SatisfyingClause other_threshold = clause;
  other_threshold.threshold = 0.9;
  EXPECT_EQ(ScoreCache::ClauseFingerprint(other_threshold), base);

  // Anything that changes the score must change the key.
  SatisfyingClause other_text = clause;
  other_text.conditions[0].text = "Coffee";
  EXPECT_NE(ScoreCache::ClauseFingerprint(other_text), base);
  SatisfyingClause other_weight = clause;
  other_weight.conditions[0].weight = 0.25;
  EXPECT_NE(ScoreCache::ClauseFingerprint(other_weight), base);
  SatisfyingClause other_kind = clause;
  other_kind.conditions[0].kind = SatCondition::Kind::kStrMentions;
  EXPECT_NE(ScoreCache::ClauseFingerprint(other_kind), base);
  SatisfyingClause more_conditions = clause;
  more_conditions.conditions.push_back(cond);
  EXPECT_NE(ScoreCache::ClauseFingerprint(more_conditions), base);
}

TEST(ScoreCacheTest, ConcurrentInsertLookupIsSafe) {
  ScoreCache cache(ScoreCache::Options{.num_shards = 4});
  constexpr int kThreads = 4;
  constexpr uint32_t kDocs = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (uint32_t doc = 0; doc < kDocs; ++doc) {
        cache.Insert(1, doc, "v", static_cast<double>(doc));
        auto hit = cache.Lookup(1, doc, "v");
        if (hit.has_value()) {
          // First writer wins and scores are deterministic, so any
          // observed value is the correct one.
          EXPECT_DOUBLE_EQ(*hit, static_cast<double>(doc));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cache.size(), kDocs);
}

// ---- Admission queue --------------------------------------------------------

TEST(AdmissionQueueTest, RejectsWhenQueueFull) {
  // max_inflight=1, max_queue=0: a second caller is rejected while the
  // first holds admission — deterministically, no timing involved.
  AdmissionQueue admission(1, 0);
  ASSERT_TRUE(admission.Enter());
  EXPECT_FALSE(admission.Enter());
  EXPECT_EQ(admission.rejected(), 1u);
  admission.Exit();
  // Slot free again: immediate admission works with a zero-length queue.
  EXPECT_TRUE(admission.Enter());
  admission.Exit();
  EXPECT_EQ(admission.admitted(), 2u);
}

TEST(AdmissionQueueTest, BoundsInflightUnderContention) {
  AdmissionQueue admission(2, SIZE_MAX);
  std::atomic<int> concurrent{0};
  std::atomic<int> max_seen{0};
  std::atomic<int> enter_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        if (!admission.Enter()) {  // unbounded queue: must never reject
          enter_failures.fetch_add(1);
          continue;
        }
        int now = concurrent.fetch_add(1) + 1;
        int seen = max_seen.load();
        while (now > seen && !max_seen.compare_exchange_weak(seen, now)) {
        }
        concurrent.fetch_sub(1);
        admission.Exit();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(enter_failures.load(), 0);
  EXPECT_LE(max_seen.load(), 2);
  EXPECT_EQ(admission.admitted(), 400u);
  EXPECT_LE(admission.peak_inflight(), 2u);
  EXPECT_EQ(admission.inflight(), 0u);
}

TEST(QueryServiceTest, RejectionSurfacesAsUnavailable) {
  ServeWorld world(/*shards=*/1, /*moments=*/30);
  QueryService::Options options;
  options.max_inflight = 1;
  options.max_queue = 0;
  QueryService service(world.sharded.get(), options, 1);

  // Hold the only admission slot via the (deliberately exposed) admission
  // queue, then observe a query bounce off the full service.
  ASSERT_TRUE(service.admission().Enter());
  auto rejected = service.Run(
      R"(extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))");
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  service.admission().Exit();

  // With the slot released the same query runs fine.
  auto ok = service.Run(
      R"(extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))");
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(service.stats().rejected, 1u);
}

}  // namespace
}  // namespace koko
