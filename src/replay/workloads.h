#ifndef KOKO_REPLAY_WORKLOADS_H_
#define KOKO_REPLAY_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/query_gen.h"
#include "koko/ast.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"
#include "text/document.h"
#include "util/status.h"

namespace koko {
namespace replay {

/// \brief The paper's six evaluation workload shapes as replayable units.
///
/// Each figure/table of the paper's evaluation (§6) pairs one corpus
/// recipe with one query family. The seed reproduced them as isolated
/// bench binaries against the original single-index engine; this library
/// regenerates the same shapes as `Workload` values — corpus plus a fixed,
/// named query list — so the traffic replayer (replay/traffic.h), the
/// golden-row parity suite (tests/workloads_test.cpp), and the fig benches
/// all draw from one deterministic source. Every generator is seeded, so a
/// (class, WorkloadOptions) pair always produces byte-identical corpora
/// and queries.
enum class WorkloadClass {
  kFig3Cafe,         ///< Short cafe-blog articles, Appendix-A cafe query.
  kFig4Wnut,         ///< WNUT-like tweets, team + facility queries.
  kFig5Descriptors,  ///< Long cafe-blog articles (descriptor ablation corpus).
  kFig7HappyDb,      ///< HappyDB-like moments, Synthetic Tree benchmark.
  kFig8Wiki,         ///< Wikipedia-like articles, Synthetic Tree benchmark.
  kTable1Gsp,        ///< HappyDB-like moments, Synthetic Span benchmark.
};

/// Stable lowercase identifier ("fig3_cafe", ...) used in golden files,
/// BENCH_workloads.json entry names, and ctest output.
const char* WorkloadClassName(WorkloadClass cls);

/// All six classes in declaration order.
std::vector<WorkloadClass> AllWorkloadClasses();

/// One replayable query: `text` is what QueryService::Run consumes, `query`
/// the parsed AST for direct Engine::Execute reference runs. The two are
/// interchangeable (QueryToString round-trips), kept both ways so neither
/// path pays a parse or print in the hot loop.
struct WorkloadQuery {
  std::string name;
  std::string text;
  Query query;
};

struct WorkloadOptions {
  /// Corpus size multiplier. 1 — the default — yields test-sized corpora
  /// (tens of documents per class); benches pass larger scales.
  int scale = 1;
  /// Upper bound on queries per class (the synthetic benchmarks generate
  /// hundreds; the replay mix samples this many, evenly spread).
  size_t queries_per_class = 8;
  /// Mixed into every generator seed, so two harness runs with different
  /// seeds replay different (but individually deterministic) workloads.
  uint64_t seed = 0;
};

struct Workload {
  WorkloadClass cls = WorkloadClass::kFig3Cafe;
  std::string name;
  AnnotatedCorpus corpus;
  std::vector<WorkloadQuery> queries;
};

/// Builds one workload class: generates the corpus, annotates it through
/// `pipeline`, and materialises the class's query list. Fails only when a
/// fixed query text no longer parses (a regression in the query language).
Result<Workload> BuildWorkload(WorkloadClass cls, const Pipeline& pipeline,
                               const WorkloadOptions& options);

/// All six classes, in declaration order.
Result<std::vector<Workload>> BuildAllWorkloads(const Pipeline& pipeline,
                                                const WorkloadOptions& options);

// ---- Query-text builders (shared with the fig benches) ----------------------

/// The Appendix-A cafe query (Figures 3/5), parameterised by threshold.
std::string CafeQueryText(double threshold);
/// The Figure-4 sports-team query over tweets.
std::string TweetTeamQueryText(double threshold);
/// The Figure-4 facility query over tweets.
std::string TweetFacilityQueryText(double threshold);

/// Converts a Synthetic Tree benchmark query (a set of root-anchored
/// paths) into an executable engine query: one node variable per path
/// (v0..vn) and output `v0:Str`, so candidate pruning exercises exactly
/// the per-path DPLI lookups the §6.2 index comparison measures.
Query QueryFromTreeBench(const TreeBenchQuery& bench, const std::string& source);

// ---- Row digests ------------------------------------------------------------

/// Order-sensitive 64-bit FNV digest over a result row stream: row count,
/// then per row doc, sid, every value string, and the raw bit pattern of
/// every score. Two results digest equal iff they are byte-identical row
/// for row — the compact form of the determinism contract that golden
/// files and the replayer's parity counters record.
uint64_t RowDigest(const std::vector<ResultRow>& rows);
uint64_t RowDigest(const QueryResult& result);

/// Fixed-width (16 hex digit) rendering used by the golden files.
std::string DigestHex(uint64_t digest);

}  // namespace replay
}  // namespace koko

#endif  // KOKO_REPLAY_WORKLOADS_H_
