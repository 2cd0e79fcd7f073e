// Figure 3: precision / recall / F1 of cafe-name extraction on the two blog
// corpora (BaristaMag-like short articles, Sprudge-like long articles) for
// CRFsuite, IKE and KOKO across thresholds.
//
// Paper shape: KOKO beats IKE and CRF in F1 at every threshold on both
// datasets (best around mid thresholds), because only KOKO aggregates
// partial evidence across a document.
#include "bench_util.h"

#include <cstdlib>

#include "extract/crf.h"
#include "extract/ike.h"

using namespace koko;
using namespace koko::bench;

namespace {

void RunDataset(const char* name, bool long_articles, int articles) {
  std::printf("== %s (%d articles, %s) ==\n", name, articles,
              long_articles ? "long" : "short");
  LabeledCorpus blogs = GenerateCafeBlogs(
      {.num_articles = articles, .long_articles = long_articles, .seed = 101});
  TrainTestSplit split = SplitHalf(blogs);

  Pipeline pipeline;
  AnnotatedCorpus test = pipeline.AnnotateCorpus(split.test_docs);
  // Shipped configuration: sharded index + default EngineOptions (planner
  // on).
  auto index = ShardedKokoIndex::Build(test, kBenchIndexShards);
  EmbeddingModel embeddings;
  Engine engine(&test, index.get(), &embeddings, pipeline.recognizer());

  // CRF: trained on the other half (50% of the data, as in the paper).
  AnnotatedCorpus train = pipeline.AnnotateCorpus(split.train_docs);
  std::vector<const Document*> train_docs;
  for (const auto& d : train.docs) train_docs.push_back(&d);
  CrfExtractor crf;
  crf.Train(CrfExtractor::MakeTrainingData(train_docs, split.train_gold));
  PRF crf_prf = ScoreExtractionLists(split.test_gold, crf.ExtractMentions(test));
  PrintPrfRow("CRFsuite", -1, crf_prf);

  // IKE: the Appendix-A patterns (single-sentence matching).
  IkeExtractor ike(&embeddings);
  auto ike_result = ike.RunAll(test, {
                                         "(NP) (\"serves coffee\" ~ 8)",
                                         "(NP) (\"employs\" ~ 8)",
                                         "(\"baristas of\" ~ 8) (NP)",
                                         "(NP) \", a cafe\"",
                                     });
  PRF ike_prf = ScoreExtractionLists(split.test_gold, ike_result.value_or({}));
  PrintPrfRow("IKE", -1, ike_prf);

  // KOKO across thresholds.
  for (double threshold : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    auto values = RunKokoExtraction(engine, EngineOptions(),
                                    replay::CafeQueryText(threshold));
    PRF prf = ScoreExtractionLists(split.test_gold, values);
    PrintPrfRow("KOKO", threshold, prf);
  }
  std::printf("\n");
}

}  // namespace

// Usage: bench_fig3_cafe [short_articles=84] [long_articles=120]
int main(int argc, char** argv) {
  const int short_articles = argc > 1 ? std::atoi(argv[1]) : 84;
  const int long_articles = argc > 2 ? std::atoi(argv[2]) : 120;
  std::printf("Figure 3 reproduction: extracting cafe names\n");
  std::printf("paper shape: KOKO F1 > IKE, CRF at every threshold; KOKO up to "
              "~3x better\n\n");
  RunDataset("BaristaMag-like", /*long_articles=*/false, short_articles);
  RunDataset("Sprudge-like", /*long_articles=*/true, long_articles);
  return 0;
}
