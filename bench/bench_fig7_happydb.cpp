// Figure 7: index lookup time and effectiveness on the HappyDB-like corpus
// over the Synthetic Tree benchmark (350 queries) — (a)/(b) vs corpus size,
// (c)/(d) vs number of extractions.
//
// Paper shape: lookup time KOKO, SUBTREE << ADVINVERTED << INVERTED (KOKO
// at least ~7x faster than the inverted family); effectiveness KOKO ≈
// ADVINVERTED ≈ 1.0 > SUBTREE (>0.6) > INVERTED (<0.5). SUBTREE supports
// only the wildcard-free, word-free subset of the benchmark.
#include "bench_util.h"

#include <cstdlib>
#include <map>

#include "baseline/adv_inverted_index.h"
#include "baseline/inverted_index.h"
#include "baseline/koko_adapter.h"
#include "baseline/subtree_index.h"
#include "corpus/query_gen.h"
#include "util/timer.h"

using namespace koko;

namespace {

struct SchemeResult {
  double total_seconds = 0;
  double effectiveness_sum = 0;
  size_t supported = 0;
  // Bucketed by log10(#extractions): bucket -> (time, eff, count)
  std::map<int, std::array<double, 3>> by_extractions;
};

int ExtractionBucket(size_t n) {
  int bucket = 0;
  while (n >= 10) {
    n /= 10;
    ++bucket;
  }
  return bucket;
}

void RunSweep(const AnnotatedCorpus& full, const std::vector<size_t>& doc_sizes,
              uint64_t query_seed) {
  for (size_t docs : doc_sizes) {
    AnnotatedCorpus corpus;
    corpus.docs.assign(full.docs.begin(), full.docs.begin() + static_cast<long>(docs));
    corpus.RebuildRefs();
    auto queries = GenerateSyntheticTreeBenchmark(
        corpus, {.queries_per_setting = 5, .seed = query_seed});
    std::printf("-- %zu docs (%zu sentences), %zu benchmark queries --\n", docs,
                corpus.NumSentences(), queries.size());

    // KOKO enters the comparison in its shipped sharded configuration
    // (candidates are element-identical for every shard count).
    auto koko_index = KokoTreeIndex::Build(corpus, 3);
    auto inverted = InvertedIndex::Build(corpus);
    auto adv = AdvInvertedIndex::Build(corpus);
    auto subtree = SubtreeIndex::Build(corpus);
    std::vector<const TreeIndex*> schemes = {koko_index.get(), inverted.get(),
                                             adv.get(), subtree.get()};

    // True extraction counts per query (for the (c)/(d) panels).
    std::vector<size_t> true_counts(queries.size(), 0);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
        bool all = true;
        for (const auto& path : queries[qi].paths) {
          if (!SentenceHasPathMatch(corpus.sentence(sid), path)) {
            all = false;
            break;
          }
        }
        if (all) ++true_counts[qi];
      }
    }

    for (const TreeIndex* scheme : schemes) {
      SchemeResult result;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        WallTimer timer;
        auto candidates = scheme->CandidateSentences(queries[qi].paths);
        double seconds = timer.ElapsedSeconds();
        if (!candidates.ok()) continue;  // unsupported (SUBTREE subset)
        double eff = IndexEffectiveness(corpus, queries[qi].paths, *candidates);
        result.total_seconds += seconds;
        result.effectiveness_sum += eff;
        result.supported += 1;
        auto& bucket = result.by_extractions[ExtractionBucket(true_counts[qi])];
        bucket[0] += seconds;
        bucket[1] += eff;
        bucket[2] += 1;
      }
      std::printf("  %-12s supported=%3zu/%zu  lookup=%8.4fs  eff=%.3f\n",
                  std::string(scheme->name()).c_str(), result.supported,
                  queries.size(), result.total_seconds,
                  result.supported ? result.effectiveness_sum /
                                         static_cast<double>(result.supported)
                                   : 0.0);
      for (const auto& [bucket, agg] : result.by_extractions) {
        std::printf("      ~10^%d extractions: avg lookup=%.5fs eff=%.3f (n=%.0f)\n",
                    bucket, agg[0] / agg[2], agg[1] / agg[2], agg[2]);
      }
    }
    std::printf("\n");
  }
}

}  // namespace

// Usage: bench_fig7_happydb [moments=8000]  (sweeps moments/4 and moments)
int main(int argc, char** argv) {
  const int moments = argc > 1 ? std::atoi(argv[1]) : 8000;
  std::printf("Figure 7 reproduction: index performance on HappyDB-like corpus\n");
  std::printf("paper shape: time KOKO,SUBTREE << ADV << INVERTED; eff KOKO~ADV~1 "
              "> SUBTREE > INVERTED\n\n");
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = moments, .seed = 601});
  AnnotatedCorpus full = pipeline.AnnotateCorpus(docs);
  RunSweep(full, {static_cast<size_t>(moments) / 4, static_cast<size_t>(moments)},
           /*query_seed=*/611);
  return 0;
}
