// Index explorer: builds the KOKO multi-index over a corpus and reports the
// paper's §3 statistics — hierarchy-index node merging (>99% of dependency
// tree nodes disappear), index sizes, and sample posting lists.
#include <cstdio>

#include "corpus/generators.h"
#include "index/sharded_index.h"
#include "nlp/pipeline.h"
#include "util/string_util.h"

int main() {
  using namespace koko;
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 400, .seed = 13});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = ShardedKokoIndex::Build(corpus, 1);
  const auto& stats = index->stats();

  std::printf("corpus: %zu docs, %zu sentences, %zu tokens\n", corpus.NumDocs(),
              corpus.NumSentences(), corpus.NumTokens());
  std::printf("build time: %.3fs\n", stats.build_seconds);
  std::printf("hierarchy merging:\n");
  std::printf("  parse-label trie: %zu nodes (%.2f%% of tree nodes removed)\n",
              stats.pl_trie_nodes, 100 * stats.PlCompression());
  std::printf("  POS-tag trie:     %zu nodes (%.2f%% removed)\n",
              stats.pos_trie_nodes, 100 * stats.PosCompression());
  std::printf("total index footprint: %s\n",
              HumanBytes(index->MemoryUsage()).c_str());
  std::printf("entities indexed: %zu\n\n", stats.num_entities);

  // A posting-list peek, like the paper's Example 3.3 table.
  PathQuery path;
  for (DepLabel label : {DepLabel::kRoot, DepLabel::kDobj}) {
    PathStep step;
    step.axis = PathStep::Axis::kChild;
    step.constraint.dep = label;
    path.steps.push_back(step);
  }
  PostingList postings = index->shard(0).LookupParseLabelPath(path);
  std::printf("posting list of /root/dobj (%zu entries, first 5):\n",
              postings.size());
  for (size_t i = 0; i < postings.size() && i < 5; ++i) {
    const Quintuple& q = postings[i];
    const Sentence& s = corpus.sentence(q.sid);
    std::printf("  %s(%u,%u,%u-%u,%u)\n", s.tokens[q.tid].text.c_str(), q.sid,
                q.tid, q.left, q.right, q.depth);
  }
  return 0;
}
