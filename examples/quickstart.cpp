// Quickstart: annotate a tiny corpus, build the KOKO multi-index, run the
// paper's Example 2.1 query — extracting (entity, description) pairs for
// things described as delicious — then persist the index and reopen it
// zero-copy (LoadMode::kMap).
#include <cstdio>

#include "embed/embedding.h"
#include "index/sharded_index.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"

int main() {
  using namespace koko;

  // 1. Annotate text (tokenise, tag, parse, NER) — Figure 2's preprocessing.
  Pipeline pipeline;
  std::vector<RawDocument> raw = {
      {"food-blog",
       "I ate a chocolate ice cream, which was delicious, and also ate a pie. "
       "Anna ate some delicious cheesecake that she bought at a grocery store."},
  };
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(raw);
  std::printf("corpus: %zu docs, %zu sentences, %zu tokens\n", corpus.NumDocs(),
              corpus.NumSentences(), corpus.NumTokens());

  // 2. Build the multi-index: word + entity inverted indices, PL/POS
  //    hierarchy indices (merged dependency-tree tries), as one shard.
  auto index = ShardedKokoIndex::Build(corpus, 1);
  std::printf("index: %zu tokens -> %zu PL trie nodes, %zu POS trie nodes\n",
              index->stats().num_tokens, index->stats().pl_trie_nodes,
              index->stats().pos_trie_nodes);

  // 3. Run Example 2.1: entities whose dobj subtree mentions "delicious".
  EmbeddingModel embeddings;
  Engine engine(&corpus, index.get(), &embeddings, pipeline.recognizer());
  const char* query = R"(
      extract e:Entity, d:Str from "input.txt" if (
        /ROOT:{
          a = //verb,
          b = a/dobj,
          c = b//"delicious",
          d = (b.subtree)
        } (b) in (e))
  )";
  auto result = engine.ExecuteText(query);
  if (!result.ok()) {
    std::printf("query failed: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("rows: %zu\n", result->rows.size());
  for (const auto& row : result->rows) {
    std::printf("  sid=%u  e=\"%s\"  d=\"%s\"\n", row.sid, row.values[0].c_str(),
                row.values[1].c_str());
  }

  // 4. Persist the index and reopen it zero-copy: LoadMode::kMap mmaps the
  //    image and aliases every posting list into the mapping (load = map +
  //    validate, no payload copy — LoadMode::kCopy aliases an owned copy
  //    of the file instead).
  //    Queries over the mapped index are byte-identical.
  const char* image = "quickstart_index.bin";
  if (!index->Save(image).ok()) return 1;
  ShardedKokoIndex::LoadOptions load;
  load.mode = LoadMode::kMap;
  auto mapped = ShardedKokoIndex::Load(image, load);
  if (!mapped.ok()) {
    std::printf("mmap load failed: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  Engine mapped_engine(&corpus, mapped->get(), &embeddings,
                       pipeline.recognizer());
  auto again = mapped_engine.ExecuteText(query);
  std::printf("mmap-loaded index (mapped=%d, resident posting bytes=%zu): "
              "%zu rows\n",
              (*mapped)->mapped() ? 1 : 0, (*mapped)->SidCacheMemoryUsage(),
              again.ok() ? again->rows.size() : 0);
  std::remove(image);
  return 0;
}
