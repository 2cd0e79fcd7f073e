// Randomized query-generator property test: for ANY generated query shape
// (tree paths, span terms, weighted satisfying clauses — src/replay/fuzz.h),
// the planner must be a pure optimisation. Planner-on rows == planner-off
// rows at every shard count, thread count, and row cap. Each case logs its
// seed and query text, so a failure is a one-line reproducible
// counterexample (KOKO_FUZZ_SEED=<n> to replay a specific seed).

#include "replay/fuzz.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generators.h"
#include "index/sharded_index.h"
#include "replay/workloads.h"

namespace koko {
namespace {

uint64_t FuzzSeed() {
  const char* env = std::getenv("KOKO_FUZZ_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 7;
}

EngineOptions ReferenceOptions() {
  EngineOptions options;
  options.use_planner = false;
  options.early_terminate = false;
  return options;
}

TEST(WorkloadFuzzTest, PlannerParityAcrossShardsAndCaps) {
  Pipeline pipeline;
  EmbeddingModel embeddings;
  const uint64_t seed = FuzzSeed();
  auto docs = GenerateHappyMoments({.num_moments = 120, .seed = seed ^ 0x9e37});
  const AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);

  replay::FuzzOptions fuzz;
  fuzz.count = 20;
  fuzz.seed = seed;
  const std::vector<replay::WorkloadQuery> queries =
      replay::GenerateFuzzQueries(corpus, fuzz);
  ASSERT_EQ(queries.size(), fuzz.count);

  for (size_t num_index_shards : {1u, 3u}) {
    auto index = ShardedKokoIndex::Build(corpus, num_index_shards);
    Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
    for (const replay::WorkloadQuery& query : queries) {
      SCOPED_TRACE("seed=" + std::to_string(seed) + " K=" +
                   std::to_string(num_index_shards) + " " + query.name + ": " +
                   query.text);
      auto reference = engine.Execute(query.query, ReferenceOptions());
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      const uint64_t want = replay::RowDigest(*reference);

      // Planner on: full row parity.
      EngineOptions planned;
      planned.use_planner = true;
      planned.early_terminate = false;
      auto full = engine.Execute(query.query, planned);
      ASSERT_TRUE(full.ok()) << full.status().ToString();
      EXPECT_EQ(replay::RowDigest(*full), want) << "planner-on rows diverged";

      // Planner on with a streaming row cap vs the planner-off
      // evaluate-then-truncate baseline at the same cap: early
      // termination and the planner together must still cut the same
      // pending-row stream at the same point.
      constexpr size_t kCap = 5;
      EngineOptions capped_reference = ReferenceOptions();
      capped_reference.max_rows = kCap;
      auto baseline = engine.Execute(query.query, capped_reference);
      ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
      EngineOptions capped;
      capped.use_planner = true;
      capped.early_terminate = true;
      capped.max_rows = kCap;
      auto result = engine.Execute(query.query, capped);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_LE(result->rows.size(), kCap);
      EXPECT_EQ(replay::RowDigest(*result), replay::RowDigest(*baseline))
          << "capped planner-on rows diverged from the capped baseline";
    }
  }
}

}  // namespace
}  // namespace koko
