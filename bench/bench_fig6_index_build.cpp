// Figure 6: index construction time (a) and index size (b) for the four
// indexing schemes as the corpus grows.
//
// Paper shape: build time INVERTED ≈ ADVINVERTED < KOKO < SUBTREE (SUBTREE
// > 2x KOKO); size KOKO smallest (hierarchy merging), INVERTED < ADV-
// INVERTED, SUBTREE largest (several times the corpus itself). The paper
// also reports the hierarchy index merges away >99.7% of tree nodes.
#include "bench_util.h"

#include "baseline/adv_inverted_index.h"
#include "baseline/inverted_index.h"
#include "baseline/koko_adapter.h"
#include "baseline/subtree_index.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace koko;

int main() {
  std::printf("Figure 6 reproduction: index build time and size\n");
  std::printf("paper shape: time INV~ADV < KOKO < SUBTREE; size KOKO < INV < "
              "ADV << SUBTREE\n\n");
  Pipeline pipeline;
  auto all_docs = GenerateWikiArticles({.num_articles = 2000, .seed = 501});
  AnnotatedCorpus full = pipeline.AnnotateCorpus(all_docs);

  for (size_t articles : {250u, 500u, 1000u, 2000u}) {
    AnnotatedCorpus corpus;
    corpus.docs.assign(full.docs.begin(),
                       full.docs.begin() + static_cast<long>(articles));
    corpus.RebuildRefs();
    std::printf("-- %zu articles, %zu sentences, %zu tokens --\n", articles,
                corpus.NumSentences(), corpus.NumTokens());

    auto koko_index = KokoTreeIndex::Build(corpus, 1);
    auto inverted = InvertedIndex::Build(corpus);
    auto adv = AdvInvertedIndex::Build(corpus);
    auto subtree = SubtreeIndex::Build(corpus);

    struct Row {
      const TreeIndex* index;
    };
    for (const TreeIndex* index :
         std::initializer_list<const TreeIndex*>{koko_index.get(), inverted.get(),
                                                 adv.get(), subtree.get()}) {
      std::printf("  %-12s build=%7.3fs  size=%s\n",
                  std::string(index->name()).c_str(), index->build_seconds(),
                  HumanBytes(index->MemoryUsage()).c_str());
    }
    const auto& stats = koko_index->index().stats();
    std::printf("  KOKO hierarchy merge: %zu tokens -> %zu PL + %zu POS nodes "
                "(%.2f%% / %.2f%% removed)\n\n",
                stats.num_tokens, stats.pl_trie_nodes, stats.pos_trie_nodes,
                100 * stats.PlCompression(), 100 * stats.PosCompression());
  }
  return 0;
}
