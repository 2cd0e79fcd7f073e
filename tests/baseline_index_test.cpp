#include <gtest/gtest.h>

#include <set>

#include "baseline/adv_inverted_index.h"
#include "baseline/inverted_index.h"
#include "baseline/koko_adapter.h"
#include "baseline/subtree_index.h"
#include "corpus/generators.h"
#include "corpus/query_gen.h"
#include "nlp/pipeline.h"

namespace koko {
namespace {

AnnotatedCorpus SmallCorpus() {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 250, .seed = 55});
  return pipeline.AnnotateCorpus(docs);
}

PathQuery DepPath(std::initializer_list<DepLabel> labels) {
  PathQuery q;
  for (DepLabel label : labels) {
    PathStep step;
    step.axis = PathStep::Axis::kChild;
    step.constraint.dep = label;
    q.steps.push_back(step);
  }
  return q;
}

// Candidates of every scheme must be complete: contain every sentence with
// a true match for all paths.
void CheckCompleteness(const TreeIndex& index, const AnnotatedCorpus& corpus,
                       const std::vector<PathQuery>& paths) {
  auto candidates = index.CandidateSentences(paths);
  if (!candidates.ok()) return;  // unsupported is fine (SUBTREE)
  std::set<uint32_t> candidate_set(candidates->begin(), candidates->end());
  for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
    bool all = true;
    for (const auto& path : paths) {
      if (!SentenceHasPathMatch(corpus.sentence(sid), path)) {
        all = false;
        break;
      }
    }
    if (all) {
      EXPECT_TRUE(candidate_set.count(sid) > 0)
          << std::string(index.name()) << " missed sid=" << sid;
    }
  }
}

class BaselineCompletenessTest : public ::testing::TestWithParam<int> {};

TEST_P(BaselineCompletenessTest, CandidatesAreComplete) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto koko = KokoTreeIndex::Build(corpus, 1);
  auto inverted = InvertedIndex::Build(corpus);
  auto adv = AdvInvertedIndex::Build(corpus);
  auto subtree = SubtreeIndex::Build(corpus);
  std::vector<const TreeIndex*> schemes = {koko.get(), inverted.get(), adv.get(),
                                           subtree.get()};

  auto queries = GenerateSyntheticTreeBenchmark(
      corpus, {.queries_per_setting = 2, .seed = static_cast<uint64_t>(
                                             100 + GetParam())});
  ASSERT_FALSE(queries.empty());
  for (const auto& query : queries) {
    for (const TreeIndex* scheme : schemes) {
      CheckCompleteness(*scheme, corpus, query.paths);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BaselineCompletenessTest,
                         ::testing::Values(1, 2, 3));

TEST(BaselineIndexTest, EffectivenessBounds) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto inverted = InvertedIndex::Build(corpus);
  auto adv = AdvInvertedIndex::Build(corpus);
  std::vector<PathQuery> pattern = {
      DepPath({DepLabel::kRoot, DepLabel::kDobj, DepLabel::kAmod})};
  auto inv_candidates = inverted->CandidateSentences(pattern);
  auto adv_candidates = adv->CandidateSentences(pattern);
  ASSERT_TRUE(inv_candidates.ok());
  ASSERT_TRUE(adv_candidates.ok());
  double inv_eff = IndexEffectiveness(corpus, pattern, *inv_candidates);
  double adv_eff = IndexEffectiveness(corpus, pattern, *adv_candidates);
  EXPECT_GE(inv_eff, 0.0);
  EXPECT_LE(inv_eff, 1.0);
  // ADVINVERTED evaluates structure; it can never be less effective than
  // the structure-blind INVERTED on the same query.
  EXPECT_GE(adv_eff, inv_eff);
  // And ADVINVERTED's candidate set is never larger.
  EXPECT_LE(adv_candidates->size(), inv_candidates->size());
}

TEST(BaselineIndexTest, SubtreeRejectsUnsupportedConstructs) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto subtree = SubtreeIndex::Build(corpus);
  // Wildcard step.
  PathQuery wildcard = DepPath({DepLabel::kRoot});
  PathStep star;
  star.axis = PathStep::Axis::kChild;
  wildcard.steps.push_back(star);
  EXPECT_FALSE(subtree->CandidateSentences({wildcard}).ok());
  // Word attribute.
  PathQuery word = DepPath({DepLabel::kRoot});
  PathStep w;
  w.axis = PathStep::Axis::kChild;
  w.constraint.word = "ate";
  word.steps.push_back(w);
  EXPECT_FALSE(subtree->CandidateSentences({word}).ok());
  // Descendant axis.
  PathQuery desc;
  PathStep d;
  d.axis = PathStep::Axis::kDescendant;
  d.constraint.dep = DepLabel::kDobj;
  desc.steps.push_back(d);
  EXPECT_FALSE(subtree->CandidateSentences({desc}).ok());
  // Mixed label kinds on one path.
  PathQuery mixed = DepPath({DepLabel::kRoot});
  PathStep p;
  p.axis = PathStep::Axis::kChild;
  p.constraint.pos = PosTag::kNoun;
  mixed.steps.push_back(p);
  EXPECT_FALSE(subtree->CandidateSentences({mixed}).ok());
  // Plain chain is supported.
  EXPECT_TRUE(
      subtree->CandidateSentences({DepPath({DepLabel::kRoot, DepLabel::kDobj})})
          .ok());
}

TEST(BaselineIndexTest, SubtreeKeysAndSizes) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto subtree = SubtreeIndex::Build(corpus);
  auto koko = KokoTreeIndex::Build(corpus, 1);
  EXPECT_GT(subtree->NumKeys(), 100u);
  // SUBTREE stores every distinct <=3-node subtree: strictly bigger.
  EXPECT_GT(subtree->MemoryUsage(), koko->MemoryUsage());
}

TEST(BaselineIndexTest, AllWildcardRejectedEverywhere) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto koko = KokoTreeIndex::Build(corpus, 1);
  auto inverted = InvertedIndex::Build(corpus);
  PathQuery star;
  PathStep s;
  s.axis = PathStep::Axis::kDescendant;
  star.steps.push_back(s);
  EXPECT_FALSE(koko->CandidateSentences({star}).ok());
  EXPECT_FALSE(inverted->CandidateSentences({star}).ok());
}

TEST(BaselineIndexTest, KokoAdapterEffectivenessIsHigh) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto koko = KokoTreeIndex::Build(corpus, 1);
  auto queries = GenerateSyntheticTreeBenchmark(
      corpus, {.queries_per_setting = 2, .seed = 77});
  double total = 0;
  size_t count = 0;
  for (const auto& query : queries) {
    auto candidates = koko->CandidateSentences(query.paths);
    ASSERT_TRUE(candidates.ok());
    total += IndexEffectiveness(corpus, query.paths, *candidates);
    ++count;
  }
  ASSERT_GT(count, 0u);
  EXPECT_GT(total / static_cast<double>(count), 0.95);
}

TEST(QueryGenTest, BenchmarkSizes) {
  AnnotatedCorpus corpus = SmallCorpus();
  auto tree = GenerateSyntheticTreeBenchmark(corpus, {.queries_per_setting = 5,
                                                      .seed = 7});
  // 48 path settings x5 + tree settings: in the paper's ballpark (350).
  EXPECT_GT(tree.size(), 250u);
  auto span = GenerateSyntheticSpanBenchmark(corpus, {.queries_per_setting = 100,
                                                      .seed = 8});
  EXPECT_EQ(span.size(), 300u);
  int atoms1 = 0, atoms3 = 0, atoms5 = 0;
  for (const auto& q : span) {
    if (q.num_atoms == 1) ++atoms1;
    if (q.num_atoms == 3) ++atoms3;
    if (q.num_atoms == 5) ++atoms5;
  }
  EXPECT_EQ(atoms1, 100);
  EXPECT_EQ(atoms3, 100);
  EXPECT_EQ(atoms5, 100);
}

}  // namespace
}  // namespace koko
