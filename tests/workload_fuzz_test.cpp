// Randomized query-generator property tests: for ANY generated query shape
// (tree paths, span terms, weighted satisfying clauses — src/replay/fuzz.h),
// the planner must be a pure optimisation. Planner-on rows == planner-off
// rows at every shard count, thread count, and row cap. Random value-only
// conditions must keep exactly the rows they score as passing. Each case
// logs its seed and query text, so a failure is a one-line reproducible
// counterexample (KOKO_FUZZ_SEED=<n> to replay a specific seed).

#include "replay/fuzz.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "corpus/generators.h"
#include "index/sharded_index.h"
#include "koko/aggregate.h"
#include "koko/parser.h"
#include "koko/printer.h"
#include "replay/workloads.h"
#include "util/rng.h"
#include "util/string_util.h"

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

// A random value-only condition on `var` (one of the five kinds that read
// only the value's text), drawing its text from `values` so that some
// values pass and some do not.
SatCondition RandomValueOnlyCondition(const std::string& var,
                                      const std::vector<std::string>& values,
                                      Rng& rng) {
  const std::string& value = rng.Choice(values);
  const std::vector<std::string> words = SplitWhitespace(value);
  const std::string& word = words.empty() ? value : rng.Choice(words);
  SatCondition cond;
  cond.var = var;
  cond.weight = 0.25 * static_cast<double>(rng.UniformInt(1, 4));
  switch (rng.Uniform(5)) {
    case 0:
      cond.kind = SatCondition::Kind::kStrContains;
      cond.text = word;
      break;
    case 1:
      cond.kind = SatCondition::Kind::kStrMentions;
      cond.text = word.substr(0, 1 + rng.Uniform(3));
      break;
    case 2:
      cond.kind = SatCondition::Kind::kStrMatches;
      cond.text = rng.Bernoulli(0.5) ? word.substr(0, 1) + ".*" : "[a-z ]+";
      break;
    case 3: {
      static const std::vector<std::string> kDicts = {"GPE", "Person",
                                                      "Location", "Nowhere"};
      cond.kind = SatCondition::Kind::kInDict;
      cond.text = rng.Choice(kDicts);
      break;
    }
    default:
      cond.kind = SatCondition::Kind::kSimilarTo;
      cond.text = word;
      break;
  }
  return cond;
}

TEST(WorkloadFuzzTest, ValueOnlyConditionsKeepTheRowsTheyPass) {
  Pipeline pipeline;
  EmbeddingModel embeddings;
  const uint64_t seed = FuzzSeed();
  auto docs = GenerateHappyMoments({.num_moments = 120, .seed = seed ^ 0x9e37});
  const AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  Aggregator aggregator(&embeddings, pipeline.recognizer(), {});
  Rng rng(Mix64(seed ^ 0x76616c7565ULL));

  // Node variables (v, o), an entity variable (e) and a derived span (s),
  // each an output column so its value is in every row.
  const std::vector<std::string> bases = {
      R"(extract v:Str, o:Str from "t" if ( /ROOT:{ v = //verb, o = v/dobj }))",
      R"(extract e:Entity from "t" if ())",
      R"(extract s:Str from "t" if (
           /ROOT:{ v = //verb, o = v/dobj, s = v + ^ + o }))",
  };
  constexpr int kVariantsPerBase = 8;
  // Variants whose conditions kept some but not all rows: the property
  // only informs when the filters both pass and reject.
  int partial = 0;
  for (size_t num_index_shards : {1u, 4u}) {
    auto index = ShardedKokoIndex::Build(corpus, num_index_shards);
    Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
    for (const std::string& base_text : bases) {
      auto base = ParseQuery(base_text);
      ASSERT_TRUE(base.ok()) << base.status().ToString();
      auto unconditioned = engine.Execute(*base, EngineOptions());
      ASSERT_TRUE(unconditioned.ok()) << unconditioned.status().ToString();
      ASSERT_FALSE(unconditioned->rows.empty()) << base_text;
      std::vector<std::vector<std::string>> column_values(base->outputs.size());
      for (const ResultRow& row : unconditioned->rows) {
        for (size_t k = 0; k < row.values.size(); ++k) {
          column_values[k].push_back(row.values[k]);
        }
      }

      for (int variant = 0; variant < kVariantsPerBase; ++variant) {
        Query query = *base;
        auto random_column = [&] { return rng.Uniform(query.outputs.size()); };
        const int num_clauses = static_cast<int>(rng.UniformInt(0, 2));
        for (int c = 0; c < num_clauses; ++c) {
          const size_t column = random_column();
          SatisfyingClause clause;
          clause.var = query.outputs[column].var;
          const int num_conditions = static_cast<int>(rng.UniformInt(1, 3));
          for (int i = 0; i < num_conditions; ++i) {
            clause.conditions.push_back(RandomValueOnlyCondition(
                clause.var, column_values[column], rng));
          }
          clause.threshold = 0.25 * static_cast<double>(rng.UniformInt(0, 4));
          query.satisfying.push_back(std::move(clause));
        }
        const int num_excluding =
            static_cast<int>(rng.UniformInt(num_clauses == 0 ? 1 : 0, 2));
        for (int j = 0; j < num_excluding; ++j) {
          const size_t column = random_column();
          query.excluding.push_back(RandomValueOnlyCondition(
              query.outputs[column].var, column_values[column], rng));
        }
        SCOPED_TRACE("seed=" + std::to_string(seed) + " K=" +
                     std::to_string(num_index_shards) + " " +
                     QueryToString(query));

        // The unconditioned rows, kept and scored by the Aggregator against
        // each row's own document.
        std::vector<ResultRow> want;
        for (const ResultRow& row : unconditioned->rows) {
          const Document& doc = corpus.docs[row.doc];
          auto value_of = [&](const std::string& var) -> const std::string& {
            for (size_t k = 0; k < query.outputs.size(); ++k) {
              if (query.outputs[k].var == var) return row.values[k];
            }
            ADD_FAILURE() << "no output column " << var;
            return row.values[0];
          };
          ResultRow kept = row;
          bool pass = true;
          for (const SatisfyingClause& clause : query.satisfying) {
            const double score = aggregator.Score(doc, value_of(clause.var),
                                                  CompileClause(clause));
            kept.scores.push_back(score);
            pass = pass && score >= clause.threshold;
          }
          for (const SatCondition& cond : query.excluding) {
            pass = pass && !(aggregator.ConditionScore(doc, value_of(cond.var),
                                                       CompileCondition(cond)) >
                             0.0);
          }
          if (pass) want.push_back(std::move(kept));
        }
        partial += !want.empty() && want.size() < unconditioned->rows.size();

        auto got = engine.Execute(query, EngineOptions());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->rows.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got->rows[i].doc, want[i].doc) << "row " << i;
          EXPECT_EQ(got->rows[i].sid, want[i].sid) << "row " << i;
          EXPECT_EQ(got->rows[i].values, want[i].values) << "row " << i;
          EXPECT_EQ(got->rows[i].scores, want[i].scores) << "row " << i;
        }
      }
    }
  }
  EXPECT_GE(partial, 8);
}

}  // namespace
}  // namespace koko
