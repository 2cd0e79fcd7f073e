// EXPLAIN: inspect the cost-based query plan and the streaming top-k
// execution. Builds a synthetic HappyDB-style corpus, runs one query with a
// row budget, and prints (1) the compiled plan — clause order by estimated
// selectivity, each clause's estimate next to the accumulator size it
// actually left — and (2) the execution figures: candidates after
// DPLI, candidates scanned, and where early termination cut the scan. Also
// demonstrates the streaming sink: rows arrive while later candidates are
// still unevaluated.
#include <cstdio>

#include "corpus/generators.h"
#include "embed/embedding.h"
#include "index/sharded_index.h"
#include "koko/engine.h"
#include "koko/explain.h"
#include "nlp/pipeline.h"

int main() {
  using namespace koko;

  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 500, .seed = 7});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  std::printf("corpus: %zu docs, %zu sentences\n\n", corpus.NumDocs(),
              corpus.NumSentences());

  const char* query = R"(
      extract e:Entity, d:Str from "moments" if (
        /ROOT:{
          a = //verb,
          b = a/dobj,
          c = b//"delicious",
          d = (b.subtree)
        } (b) in (e))
  )";

  // Top-k with streaming: the sink sees each row the moment extraction
  // finalizes it — before later candidates are even loaded — and the scan
  // stops as soon as the budget is provably satisfied.
  EngineOptions options;
  options.max_rows = 5;
  size_t streamed = 0;
  RowSink sink = [&](const ResultRow& row) {
    ++streamed;
    std::printf("streamed row %zu: sid=%u  e=\"%s\"\n", streamed, row.sid,
                row.values[0].c_str());
  };
  options.sink = &sink;

  auto result = engine.ExecuteText(query, options);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  // EXPLAIN output: the plan the engine compiled for this query (cached by
  // clause fingerprint on repeat runs) plus this execution's figures.
  std::printf("\n%s", ExplainExecution(*result).c_str());

  // The same query without a budget evaluates every candidate; the rows it
  // keeps after truncation are byte-identical to the streamed prefix.
  EngineOptions full = options;
  full.sink = nullptr;
  full.early_terminate = false;
  auto baseline = engine.ExecuteText(query, full);
  if (!baseline.ok()) return 1;
  std::printf(
      "\nfull-evaluate-then-truncate baseline: scanned %zu of %zu "
      "candidates for the same %zu rows\n",
      baseline->scanned_candidates, baseline->candidate_sentences,
      baseline->rows.size());
  return 0;
}
