// Table 1: average extract-clause evaluation time (ms per relevant
// sentence) for span variables with 1, 3 and 5 atoms — KOKO&GSP vs
// KOKO&NOGSP, on HappyDB-like and Wikipedia-like corpora (Synthetic Span
// benchmark). Each (query, arm) runs once untimed, then is timed as the
// median of bench::kTimedRuns runs (bench::MedianOfWarmRuns); the
// NOGSP/GSP ratios come from those medians.
//
// Paper shape: with 1 atom NOGSP is slightly faster (plan generation
// overhead buys nothing); with 3 atoms GSP wins clearly; with 5 atoms GSP
// is about three orders of magnitude faster.
#include "bench_util.h"

#include <array>
#include <cstdlib>
#include <map>

#include "corpus/query_gen.h"

using namespace koko;

namespace {

// Median extract time per candidate sentence, in ms, over
// bench::kTimedRuns warm runs of `query`; a negative value when the query
// fails or has no candidates.
double MedianMsPerSentence(const Engine& engine, const Query& query,
                           const EngineOptions& options) {
  return bench::MedianOfWarmRuns([&] {
    auto result = engine.Execute(query, options);
    if (!result.ok() || result->candidate_sentences == 0) return -1.0;
    // GSP runs inside the extract scan, so extract already holds it.
    return 1e3 * result->phases.Get(Phase::kExtract) /
           static_cast<double>(result->candidate_sentences);
  });
}

void RunCorpus(const char* name, const AnnotatedCorpus& corpus,
               int queries_per_setting) {
  std::printf("== %s (%zu sentences) ==\n", name, corpus.NumSentences());
  auto queries = GenerateSyntheticSpanBenchmark(
      corpus, {.queries_per_setting = queries_per_setting, .seed = 801});
  // Shipped configuration: sharded index (the GSP/NOGSP toggle rides on
  // top of default EngineOptions).
  auto index = ShardedKokoIndex::Build(corpus, bench::kBenchIndexShards);
  EmbeddingModel embeddings;
  Pipeline pipeline;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());

  // atoms -> {gsp_ms_per_sentence_sum, nogsp_..., query count}
  std::map<int, std::array<double, 3>> table;
  for (const auto& bench : queries) {
    for (bool use_gsp : {true, false}) {
      EngineOptions options;
      options.use_gsp = use_gsp;
      options.max_rows = 200000;
      const double ms_per_sentence =
          MedianMsPerSentence(engine, bench.query, options);
      if (ms_per_sentence < 0) continue;
      auto& row = table[bench.num_atoms];
      row[use_gsp ? 0 : 1] += ms_per_sentence;
      if (use_gsp) row[2] += 1;
    }
  }
  std::printf("  %-14s %12s %12s\n", "#atoms", "KOKO&GSP", "KOKO&NOGSP");
  for (const auto& [atoms, row] : table) {
    if (row[2] == 0) continue;
    std::printf("  %-14d %9.4f ms %9.4f ms   (NOGSP/GSP = %.1fx)\n", atoms,
                row[0] / row[2], row[1] / row[2],
                row[0] > 0 ? row[1] / row[0] : 0.0);
  }
  std::printf("\n");
}

}  // namespace

// Usage: bench_table1_gsp [moments=1200] [articles=250] [queries_per_setting=25]
int main(int argc, char** argv) {
  const int moments = argc > 1 ? std::atoi(argv[1]) : 1200;
  const int articles = argc > 2 ? std::atoi(argv[2]) : 250;
  const int queries_per_setting = argc > 3 ? std::atoi(argv[3]) : 25;
  std::printf("Table 1 reproduction: GSP vs NOGSP evaluation time per sentence\n");
  std::printf("paper shape: 1 atom ~parity; 3 atoms GSP faster; 5 atoms GSP "
              "orders of magnitude faster\n\n");
  Pipeline pipeline;
  {
    auto docs = GenerateHappyMoments(
        {.num_moments = moments, .seed = 802});
    AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
    RunCorpus("HappyDB-like", corpus, queries_per_setting);
  }
  {
    auto docs = GenerateWikiArticles({.num_articles = articles, .seed = 803});
    AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
    RunCorpus("Wikipedia-like", corpus, queries_per_setting);
  }
  return 0;
}
