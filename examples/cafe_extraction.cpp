// Cafe-name extraction (the paper's running example, §2.2 / §6.1): extract
// rarely-mentioned cafe names from blog posts by aggregating weak evidence
// ("serves coffee" paraphrases, barista mentions) across each document.
#include <cstdio>

#include "corpus/generators.h"
#include "embed/embedding.h"
#include "extract/metrics.h"
#include "index/sharded_index.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"

int main() {
  using namespace koko;
  LabeledCorpus blogs =
      GenerateCafeBlogs({.num_articles = 30, .long_articles = false, .seed = 7});
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(blogs.docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  // Domain ontology (the paper's footnote: a coffee dictionary guides
  // expansion).
  engine.AddOntologySet({"coffee", "espresso", "cappuccino", "macchiato",
                         "latte", "pour-over"});

  const char* query = R"(
extract x:Entity from "blogs" if ()
satisfying x
  (str(x) contains "Cafe" {1}) or
  (str(x) contains "Coffee" {1}) or
  (str(x) contains "Roasters" {1}) or
  (x ", a cafe" {1}) or
  (x [["serves coffee"]] {0.5}) or
  (x [["employs baristas"]] {0.5}) or
  (x [["hired a star barista"]] {0.5})
with threshold 0.6
excluding
  (str(x) matches "[Ll]a Marzocco") or
  (str(x) in dict("GPE")) or
  (str(x) in dict("Person"))
)";
  auto result = engine.ExecuteText(query);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::set<std::string> names;
  for (const auto& row : result->rows) names.insert(row.values[0]);
  std::printf("extracted %zu candidate cafes:\n", names.size());
  std::vector<std::string> predicted(names.begin(), names.end());
  for (const auto& n : predicted) std::printf("  %s\n", n.c_str());
  PRF prf = ScoreExtractionLists(blogs.gold, predicted);
  std::printf("vs ground truth: P=%.2f R=%.2f F1=%.2f\n", prf.precision,
              prf.recall, prf.f1);
  return 0;
}
