// Relation extraction over encyclopedia-style text: the §6.3 DateOfBirth
// and Title queries, combining tree patterns, span terms, and SimilarTo
// filtering.
#include <cstdio>

#include "corpus/generators.h"
#include "embed/embedding.h"
#include "index/sharded_index.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"

int main() {
  using namespace koko;
  auto docs = GenerateWikiArticles({.num_articles = 120, .seed = 9});
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());

  std::printf("== DateOfBirth: (person, date) pairs ==\n");
  auto dob = engine.ExecuteText(R"(
extract a:Person, b:Date from wiki.article if ( /ROOT:{ v = verb })
satisfying v (v SimilarTo "born" {1}) with threshold 0.9)");
  if (!dob.ok()) {
    std::printf("failed: %s\n", dob.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < dob->rows.size() && i < 8; ++i) {
    std::printf("  %-24s born %s\n", dob->rows[i].values[0].c_str(),
                dob->rows[i].values[1].c_str());
  }
  std::printf("  ... %zu rows total\n\n", dob->rows.size());

  std::printf("== Title: (person, nickname) pairs ==\n");
  auto title = engine.ExecuteText(R"(
extract a:Person, b:Str from wiki.article if (
  /ROOT:{ v = //"called", p = v/propn, b = p.subtree, c = a + ^ + v + ^ + b }))");
  if (!title.ok()) {
    std::printf("failed: %s\n", title.status().ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < title->rows.size() && i < 8; ++i) {
    std::printf("  %-24s called \"%s\"\n", title->rows[i].values[0].c_str(),
                title->rows[i].values[1].c_str());
  }
  std::printf("  ... %zu rows total\n", title->rows.size());
  return 0;
}
