// Example 2.2: SimilarTo distinguishes syntactically identical sentences.
//
// Paper table:
//              S1 (china/japan)          S2 (beijing/tokyo)
//   Q1 (city)      NA                    Tokyo 0.409, Beijing 0.358
//   Q2 (country)   China 0.513, Japan 0.457   NA
#include "bench_util.h"

using namespace koko;
using namespace koko::bench;

int main() {
  std::printf("Example 2.2 reproduction: SimilarTo on GPE entities\n\n");
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(
      {{"s1", "Cities in asian countries such as China and Japan."},
       {"s2", "Cities in asian countries such as Beijing and Tokyo."}});
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());

  for (const char* descriptor : {"city", "country"}) {
    char query[512];
    std::snprintf(query, sizeof(query),
                  "extract a:GPE from \"input.txt\" if () satisfying a "
                  "(a SimilarTo \"%s\" {1.0}) with threshold 0.3",
                  descriptor);
    auto result = engine.ExecuteText(query);
    std::printf("Q(%s):\n", descriptor);
    if (!result.ok()) {
      std::printf("  failed: %s\n", result.status().ToString().c_str());
      continue;
    }
    if (result->rows.empty()) std::printf("  (no results)\n");
    for (const auto& row : result->rows) {
      std::printf("  S%u: %-10s %.4f\n", row.sid + 1, row.values[0].c_str(),
                  row.scores[0]);
    }
  }
  std::printf("\nexpected shape: Q(city) fires only on S2; Q(country) only on "
              "S1; scores in (0.3, 0.6)\n");
  return 0;
}
