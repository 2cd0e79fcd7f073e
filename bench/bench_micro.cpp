// Micro-benchmarks (google-benchmark): the individual operations behind the
// paper's index results — B+tree ops, hierarchy-trie path lookup vs
// brute-force tree walks, posting joins, word-index lookups, regex matching.
// These back the DESIGN.md ablation notes rather than a specific figure.
#include <benchmark/benchmark.h>

#include <unordered_set>

#include "bench_util.h"
#include "corpus/generators.h"
#include "index/koko_index.h"
#include "index/path_lookup.h"
#include "index/sid_ops.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"
#include "regex/regex.h"
#include "storage/btree.h"
#include "util/rng.h"

namespace koko {
namespace {

const AnnotatedCorpus& SharedCorpus() {
  static const AnnotatedCorpus* corpus = [] {
    Pipeline pipeline;
    auto docs = GenerateHappyMoments({.num_moments = 1500, .seed = 42});
    return new AnnotatedCorpus(pipeline.AnnotateCorpus(docs));
  }();
  return *corpus;
}

// The served one-shard index; kernel benches read its shard directly.
const ShardedKokoIndex& SharedServedIndex() {
  static const ShardedKokoIndex* index =
      ShardedKokoIndex::Build(SharedCorpus(), 1).release();
  return *index;
}

const KokoIndex& SharedIndex() { return SharedServedIndex().shard(0); }

PathQuery DobjAmodPath() {
  PathQuery q;
  PathStep s1;
  s1.axis = PathStep::Axis::kChild;
  s1.constraint.dep = DepLabel::kRoot;
  PathStep s2;
  s2.axis = PathStep::Axis::kChild;
  s2.constraint.dep = DepLabel::kDobj;
  PathStep s3;
  s3.axis = PathStep::Axis::kChild;
  s3.constraint.dep = DepLabel::kAmod;
  q.steps = {s1, s2, s3};
  return q;
}

void BM_BTreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    BPlusTree<uint64_t, uint32_t> tree;
    Rng rng(1);
    for (int i = 0; i < 4096; ++i) {
      tree.Insert(rng.Next() % 1024, static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(tree.NumValues());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BTreeInsert);

void BM_BTreeLookup(benchmark::State& state) {
  BPlusTree<uint64_t, uint32_t> tree;
  Rng rng(2);
  for (int i = 0; i < 65536; ++i) tree.Insert(rng.Next() % 16384, 1);
  Rng probe(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(probe.Next() % 16384));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BTreeLookup);

void BM_HierarchyTrieLookup(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path = DobjAmodPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.LookupParseLabelPath(path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HierarchyTrieLookup);

void BM_BruteForcePathMatch(benchmark::State& state) {
  const AnnotatedCorpus& corpus = SharedCorpus();
  PathQuery path = DobjAmodPath();
  for (auto _ : state) {
    size_t hits = 0;
    for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
      hits += MatchPathInSentence(corpus.sentence(sid), path).size();
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BruteForcePathMatch);

void BM_WordIndexLookup(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.LookupWord("delicious"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WordIndexLookup);

// A cross-index path (POS + parse-label + word): the shape that cannot be
// answered from a single hierarchy trie and falls back to quintuple joins.
PathQuery CrossIndexPath() {
  PathQuery path;
  PathStep s1;
  s1.axis = PathStep::Axis::kDescendant;
  s1.constraint.pos = PosTag::kVerb;
  PathStep s2;
  s2.axis = PathStep::Axis::kChild;
  s2.constraint.dep = DepLabel::kDobj;
  PathStep s3;
  s3.axis = PathStep::Axis::kDescendant;
  s3.constraint.word = "delicious";
  path.steps = {s1, s2, s3};
  return path;
}

void BM_DecomposedPathLookup(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path = CrossIndexPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KokoPathLookup(index, path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecomposedPathLookup);

// ---- Sid projection of a cross-index path -----------------------------------
//
// DPLI only needs the *sids* of a path's matches. The old fallback
// materialised the full quintuple join and projected it; the sid lookup
// narrows every posting fetch to the path's word lists first, and to the
// running candidate set when DPLI passes one.

// Old fallback, verbatim: full quintuple join, then project the sids.
void BM_PathSidFallbackQuintuple(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path = CrossIndexPath();
  for (auto _ : state) {
    PathLookupResult full = KokoPathLookup(index, path);
    benchmark::DoNotOptimize(
        SidList::FromSorted(SidsOfPostings(full.postings)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathSidFallbackQuintuple);

// The sid lookup: the word list narrows every posting fetch before any
// quintuple materialises.
void BM_PathSidSemiJoin(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path = CrossIndexPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KokoPathSidLookup(index, path, nullptr));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathSidSemiJoin);

// A broad word-free path (//verb/nsubj matches most sentences) looked up
// with a small running candidate set as filter, as DPLI runs every path
// atom after the first. Arg 0 runs it unfiltered, Arg 1 with one sid in
// 64 as the filter.
void BM_PathSidLookupFiltered(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path;
  PathStep verb;
  verb.axis = PathStep::Axis::kDescendant;
  verb.constraint.pos = PosTag::kVerb;
  PathStep nsubj;
  nsubj.axis = PathStep::Axis::kChild;
  nsubj.constraint.dep = DepLabel::kNsubj;
  path.steps = {verb, nsubj};
  std::vector<uint32_t> ids;
  ids.reserve(index.stats().num_sentences / 64 + 1);
  for (uint32_t sid = 0; sid < index.stats().num_sentences; sid += 64) {
    ids.push_back(sid);
  }
  const SidList filter = SidList::FromSorted(std::move(ids));
  const SidList* arg = state.range(0) == 0 ? nullptr : &filter;
  size_t sids = 0;
  for (auto _ : state) {
    PathSidLookupResult result = KokoPathSidLookup(index, path, arg);
    sids = result.sids.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["filter"] = benchmark::Counter(
      static_cast<double>(arg == nullptr ? 0 : filter.size()));
  state.counters["sids"] = benchmark::Counter(static_cast<double>(sids));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PathSidLookupFiltered)->Arg(0)->Arg(1);

// ---- DPLI intersection kernels ---------------------------------------------
//
// The candidate-pruning hot path: intersecting one small and one large
// sentence-id list. `ratio` is |large| / |small| (the paper's skewed case —
// a selective path or literal against a broad one). The hash-set baseline
// reproduces the seed engine's per-query strategy: hash every sid, probe,
// re-sort. The galloping kernel runs on the index's precomputed sorted
// lists (built once, not per query).

constexpr size_t kSmallListSize = 1000;

std::pair<SidList, SidList> SkewedLists(size_t ratio) {
  Rng rng(17);
  std::vector<uint32_t> small, large;
  const uint32_t universe =
      static_cast<uint32_t>(kSmallListSize * ratio * 4);
  for (size_t i = 0; i < kSmallListSize; ++i) {
    small.push_back(static_cast<uint32_t>(rng.Next() % universe));
  }
  for (size_t i = 0; i < kSmallListSize * ratio; ++i) {
    large.push_back(static_cast<uint32_t>(rng.Next() % universe));
  }
  return {SidList::FromUnsorted(std::move(small)),
          SidList::FromUnsorted(std::move(large))};
}

void BM_SidIntersectHashSet(benchmark::State& state) {
  auto [small, large] = SkewedLists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::unordered_set<uint32_t> probe(large.begin(), large.end());
    std::vector<uint32_t> out;
    for (uint32_t sid : small) {
      if (probe.count(sid) > 0) out.push_back(sid);
    }
    std::sort(out.begin(), out.end());
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + large.size()));
}
BENCHMARK(BM_SidIntersectHashSet)->Arg(1)->Arg(10)->Arg(100);

void BM_SidIntersectGalloping(benchmark::State& state) {
  auto [small, large] = SkewedLists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(small, large));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + large.size()));
}
BENCHMARK(BM_SidIntersectGalloping)->Arg(1)->Arg(10)->Arg(100);

// In-place block-compressed intersection: the larger side stays in its
// resident BlockList form (skip-table gallop to the candidate block, decode
// at most one 128-sid block into a stack buffer). The acceptance bar is
// within 2x of the decoded galloping kernel at 1:1 skew — the price of the
// per-block decodes — while the resident footprint drops ~3-4x.
void BM_SidIntersectBlockVsDecoded(benchmark::State& state) {
  auto [small, large] = SkewedLists(static_cast<size_t>(state.range(0)));
  BlockList large_blocks = BlockList::FromSidList(large);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(small, large_blocks));
  }
  state.counters["resident_bytes"] =
      benchmark::Counter(static_cast<double>(large_blocks.MemoryUsage()));
  state.counters["decoded_bytes"] =
      benchmark::Counter(static_cast<double>(large.MemoryUsage()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + large.size()));
}
BENCHMARK(BM_SidIntersectBlockVsDecoded)->Arg(1)->Arg(10)->Arg(100);

// Both sides compressed — the engine's common case (stored word/entity
// projections against each other).
void BM_SidIntersectBlockBoth(benchmark::State& state) {
  auto [small, large] = SkewedLists(static_cast<size_t>(state.range(0)));
  BlockList small_blocks = BlockList::FromSidList(small);
  BlockList large_blocks = BlockList::FromSidList(large);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(small_blocks, large_blocks));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + large.size()));
}
BENCHMARK(BM_SidIntersectBlockBoth)->Arg(1)->Arg(10)->Arg(100);

// Full-decode strawman: what intersecting compressed lists costs when the
// compressed side is materialised first instead of walked in place.
void BM_SidIntersectBlockFullDecode(benchmark::State& state) {
  auto [small, large] = SkewedLists(static_cast<size_t>(state.range(0)));
  BlockList large_blocks = BlockList::FromSidList(large);
  for (auto _ : state) {
    SidList decoded = large_blocks.Decode();
    benchmark::DoNotOptimize(Intersect(small, decoded));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + large.size()));
}
BENCHMARK(BM_SidIntersectBlockFullDecode)->Arg(1)->Arg(10)->Arg(100);

// ---- Skew sweep: in-place intersection ---------------------------------------
//
// DPLI's central kernel shape: a small decoded accumulator against a
// resident BlockList `ratio` times larger, walked in place (skip-table
// gallop, decode at most one block per probe run), 1:1 through 1:1000.

void BM_SkewIntersectInPlace(benchmark::State& state) {
  auto [small, large] = SkewedLists(static_cast<size_t>(state.range(0)));
  BlockList large_blocks = BlockList::FromSidList(large);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Intersect(small, large_blocks));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(small.size() + large.size()));
}
BENCHMARK(BM_SkewIntersectInPlace)
    ->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1000);

// ---- Streaming top-k: early termination vs full-evaluate-then-truncate ------

const char* kBroadQuery = R"(
    extract b:Str from "moments" if ( /ROOT:{ a = //verb, b = a/dobj }))";

// The truncation baseline: one chunk over every DPLI candidate, so every
// candidate document loads up front and rows are cut to max_rows there.
void BM_EngineMaxRowsFullTruncate(benchmark::State& state) {
  const AnnotatedCorpus& corpus = SharedCorpus();
  const ShardedKokoIndex& index = SharedServedIndex();
  Pipeline pipeline;
  EmbeddingModel embeddings;
  Engine engine(&corpus, &index, &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  EngineOptions options;
  options.max_rows = static_cast<size_t>(state.range(0));
  options.early_terminate = false;
  size_t scanned = 0, candidates = 0;
  for (auto _ : state) {
    auto result = engine.ExecuteText(kBroadQuery, options);
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      scanned = result->scanned_candidates;
      candidates = result->candidate_sentences;
    }
  }
  state.counters["scanned"] = benchmark::Counter(static_cast<double>(scanned));
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(candidates));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineMaxRowsFullTruncate)->Arg(10);

// Streaming top-k: the candidate scan stops as soon as max_rows is provably
// satisfied (rows stay byte-identical — planner_test enforces parity).
void BM_EngineMaxRowsEarlyTerminate(benchmark::State& state) {
  const AnnotatedCorpus& corpus = SharedCorpus();
  const ShardedKokoIndex& index = SharedServedIndex();
  Pipeline pipeline;
  EmbeddingModel embeddings;
  Engine engine(&corpus, &index, &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  EngineOptions options;
  options.max_rows = static_cast<size_t>(state.range(0));
  size_t scanned = 0, candidates = 0;
  for (auto _ : state) {
    auto result = engine.ExecuteText(kBroadQuery, options);
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      scanned = result->scanned_candidates;
      candidates = result->candidate_sentences;
    }
  }
  state.counters["scanned"] = benchmark::Counter(static_cast<double>(scanned));
  state.counters["candidates"] =
      benchmark::Counter(static_cast<double>(candidates));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineMaxRowsEarlyTerminate)->Arg(10);

// ---- DPLI phase: seed-style hash pruning vs the columnar engine path --------

const char* kDpliQuery = R"(
    extract e:Entity, d:Str from "moments" if (
      /ROOT:{ a = //verb, b = a/dobj, c = b//"delicious", d = (b.subtree) }
      (b) in (e)))";

// The seed engine's DPLI block, verbatim strategy: materialise quintuples,
// hash sids per atom, pairwise hash-intersect, final sort.
void BM_DpliPhaseHashSetBaseline(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path = DobjAmodPath();
  for (auto _ : state) {
    std::vector<std::unordered_set<uint32_t>> sets;
    std::unordered_set<uint32_t> path_sids;
    for (const Quintuple& q : KokoPathLookup(index, path).postings) {
      path_sids.insert(q.sid);
    }
    sets.push_back(std::move(path_sids));
    std::unordered_set<uint32_t> entity_sids;
    for (const EntityPosting& e : index.AllEntities()) entity_sids.insert(e.sid);
    sets.push_back(std::move(entity_sids));
    std::unordered_set<uint32_t> word_sids;
    for (const Quintuple& q : index.LookupWord("delicious")) {
      word_sids.insert(q.sid);
    }
    sets.push_back(std::move(word_sids));
    std::unordered_set<uint32_t> current = std::move(sets[0]);
    for (size_t i = 1; i < sets.size(); ++i) {
      std::unordered_set<uint32_t> merged;
      for (uint32_t sid : current) {
        if (sets[i].count(sid) > 0) merged.insert(sid);
      }
      current = std::move(merged);
    }
    std::vector<uint32_t> candidates(current.begin(), current.end());
    std::sort(candidates.begin(), candidates.end());
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpliPhaseHashSetBaseline);

// The same pruning via the columnar path the engine now uses.
void BM_DpliPhaseGalloping(benchmark::State& state) {
  const KokoIndex& index = SharedIndex();
  PathQuery path = DobjAmodPath();
  for (auto _ : state) {
    SidList path_sids = KokoPathSidLookup(index, path, nullptr).sids;
    const BlockList* words = index.WordSids("delicious");
    BlockList empty;
    std::vector<uint32_t> candidates =
        IntersectAllViews({&path_sids, &index.AllEntitySids(),
                           words != nullptr ? words : &empty})
            .TakeIds();
    benchmark::DoNotOptimize(candidates);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpliPhaseGalloping);

// Whole-query phase breakdown with the production engine: emits the DPLI /
// extract wall times as counters so BENCH_*.json snapshots track them.
void BM_DpliPhaseEndToEnd(benchmark::State& state) {
  const AnnotatedCorpus& corpus = SharedCorpus();
  const ShardedKokoIndex& index = SharedServedIndex();
  Pipeline pipeline;
  EmbeddingModel embeddings;
  Engine engine(&corpus, &index, &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());
  EngineOptions options;
  double dpli_seconds = 0;
  double extract_seconds = 0;
  size_t queries = 0;
  for (auto _ : state) {
    auto result = engine.ExecuteText(kDpliQuery, options);
    benchmark::DoNotOptimize(result);
    if (result.ok()) {
      dpli_seconds += result->phases.Get("DPLI");
      extract_seconds += result->phases.Get("extract");
      ++queries;
    }
  }
  if (queries > 0) {
    state.counters["dpli_us"] =
        benchmark::Counter(dpli_seconds * 1e6 / static_cast<double>(queries));
    state.counters["extract_us"] = benchmark::Counter(
        extract_seconds * 1e6 / static_cast<double>(queries));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DpliPhaseEndToEnd);

// ---- Block-decode bandwidth ------------------------------------------------
//
// Raw posting-block decode throughput (sids/sec).
void BM_BlockDecodePacked(benchmark::State& state) {
  Rng rng(23);
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 200000; ++i) {
    ids.push_back(static_cast<uint32_t>(rng.Next() % (1u << 22)));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const BlockList list = BlockList::FromSidList(SidList::FromSorted(ids));
  uint32_t buf[BlockList::kBlockSids];
  for (auto _ : state) {
    uint64_t sum = 0;
    for (size_t b = 0; b < list.NumBlocks(); ++b) {
      const size_t n = list.DecodeBlock(b, buf);
      sum += buf[n - 1];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(ids.size()));
}
BENCHMARK(BM_BlockDecodePacked);

void BM_RegexPartialMatch(benchmark::State& state) {
  auto re = Regex::Compile("[0-9]+ [0-9A-Z a-z]+ [Ss]t.?");
  std::string input = "the new cafe at 123 Mission St. has espresso";
  for (auto _ : state) {
    benchmark::DoNotOptimize(re->PartialMatch(input));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegexPartialMatch);

void BM_AnnotateSentence(benchmark::State& state) {
  Pipeline pipeline;
  std::string text =
      "Anna ate some delicious cheesecake that she bought at a grocery store.";
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.AnnotateSentence(text));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AnnotateSentence);

}  // namespace
}  // namespace koko

namespace {

// Forwards to the normal console output while capturing every finished run
// (time per iteration + user counters) into the shared JsonEmitter, so the
// binary leaves a BENCH_micro.json snapshot behind for trend tracking.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(koko::bench::JsonEmitter* emitter)
      : emitter_(emitter) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      std::vector<std::pair<std::string, double>> values;
      values.emplace_back("real_s_per_iter", run.real_accumulated_time / iters);
      values.emplace_back("cpu_s_per_iter", run.cpu_accumulated_time / iters);
      values.emplace_back("iterations", iters);
      for (const auto& [name, counter] : run.counters) {
        values.emplace_back(name, counter.value);
      }
      emitter_->AddEntry(run.benchmark_name(), std::move(values));
    }
  }

 private:
  koko::bench::JsonEmitter* emitter_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  koko::bench::JsonEmitter emitter("micro");
  JsonCapturingReporter reporter(&emitter);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  emitter.SetMeta("corpus_sentences",
                  static_cast<double>(koko::SharedCorpus().NumSentences()));
  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_micro.json\n");
  }
  benchmark::Shutdown();
  return 0;
}
