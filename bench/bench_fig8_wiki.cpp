// Figure 8: the Figure-7 measurement repeated on the Wikipedia-like corpus.
//
// Paper shape: same ordering as Figure 7; INVERTED degrades fastest with
// corpus size (the paper could not scale it past 5000 articles).
#include "bench_util.h"

#include <cstdlib>

#include "baseline/adv_inverted_index.h"
#include "baseline/inverted_index.h"
#include "baseline/koko_adapter.h"
#include "baseline/subtree_index.h"
#include "corpus/query_gen.h"
#include "util/timer.h"

using namespace koko;

// Usage: bench_fig8_wiki [articles=1500]  (sweeps articles/3 and articles)
int main(int argc, char** argv) {
  const int num_articles = argc > 1 ? std::atoi(argv[1]) : 1500;
  std::printf("Figure 8 reproduction: index performance on Wikipedia-like corpus\n");
  std::printf("paper shape: same ordering as Fig. 7; INVERTED scales worst\n\n");
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = num_articles, .seed = 701});
  AnnotatedCorpus full = pipeline.AnnotateCorpus(docs);

  for (size_t articles : {static_cast<size_t>(num_articles) / 3,
                          static_cast<size_t>(num_articles)}) {
    AnnotatedCorpus corpus;
    corpus.docs.assign(full.docs.begin(),
                       full.docs.begin() + static_cast<long>(articles));
    corpus.RebuildRefs();
    auto queries = GenerateSyntheticTreeBenchmark(
        corpus, {.queries_per_setting = 5, .seed = 711});
    std::printf("-- %zu articles (%zu sentences), %zu queries --\n", articles,
                corpus.NumSentences(), queries.size());

    // KOKO enters the comparison in its shipped sharded configuration.
    auto koko_index = KokoTreeIndex::Build(corpus, 3);
    auto inverted = InvertedIndex::Build(corpus);
    auto adv = AdvInvertedIndex::Build(corpus);
    auto subtree = SubtreeIndex::Build(corpus);

    for (const TreeIndex* scheme :
         std::initializer_list<const TreeIndex*>{koko_index.get(), inverted.get(),
                                                 adv.get(), subtree.get()}) {
      double total_seconds = 0;
      double eff_sum = 0;
      size_t supported = 0;
      for (const auto& query : queries) {
        WallTimer timer;
        auto candidates = scheme->CandidateSentences(query.paths);
        double seconds = timer.ElapsedSeconds();
        if (!candidates.ok()) continue;
        total_seconds += seconds;
        eff_sum += IndexEffectiveness(corpus, query.paths, *candidates);
        ++supported;
      }
      std::printf("  %-12s supported=%3zu/%zu  lookup=%8.4fs  eff=%.3f\n",
                  std::string(scheme->name()).c_str(), supported, queries.size(),
                  total_seconds,
                  supported ? eff_sum / static_cast<double>(supported) : 0.0);
    }
    std::printf("\n");
  }
  return 0;
}
