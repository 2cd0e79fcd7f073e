// Figure 5: KOKO with vs without descriptor expansion (F1 vs threshold) on
// both blog corpora.
//
// Paper shape: descriptors improve F1 on the short-article corpus
// (BaristaMag) where evidence is weak and paraphrased; on the long-article
// corpus (Sprudge) strong exact-phrase evidence dominates and descriptors
// add little.
#include "bench_util.h"

#include <cstdlib>

using namespace koko;
using namespace koko::bench;

namespace {

void RunDataset(const char* name, bool long_articles, int articles) {
  std::printf("== %s ==\n", name);
  LabeledCorpus blogs = GenerateCafeBlogs(
      {.num_articles = articles, .long_articles = long_articles, .seed = 301});
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(blogs.docs);
  // Shipped configuration: sharded index; the ablation toggles only
  // use_descriptors on top of default EngineOptions.
  auto index = ShardedKokoIndex::Build(corpus, kBenchIndexShards);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  for (double threshold : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    EngineOptions with_descriptors;
    with_descriptors.use_descriptors = true;
    EngineOptions without_descriptors;
    without_descriptors.use_descriptors = false;
    const std::string query = replay::CafeQueryText(threshold);
    auto with = RunKokoExtraction(engine, with_descriptors, query);
    auto without = RunKokoExtraction(engine, without_descriptors, query);
    PRF with_prf = ScoreExtractionLists(blogs.gold, with);
    PRF without_prf = ScoreExtractionLists(blogs.gold, without);
    std::printf("  t=%.1f  with descriptors F1=%.3f   without F1=%.3f   delta=%+.3f\n",
                threshold, with_prf.f1, without_prf.f1,
                with_prf.f1 - without_prf.f1);
  }
  std::printf("\n");
}

}  // namespace

// Usage: bench_fig5_descriptors [articles=90]
int main(int argc, char** argv) {
  const int articles = argc > 1 ? std::atoi(argv[1]) : 90;
  std::printf("Figure 5 reproduction: KOKO with/without descriptors\n");
  std::printf("paper shape: descriptors help on short articles, ~no gain on "
              "long articles\n\n");
  RunDataset("BaristaMag-like (short)", /*long_articles=*/false, articles);
  RunDataset("Sprudge-like (long)", /*long_articles=*/true, articles);
  return 0;
}
