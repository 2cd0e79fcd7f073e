#ifndef KOKO_KOKO_ENGINE_H_
#define KOKO_KOKO_ENGINE_H_

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "embed/embedding.h"
#include "index/sharded_index.h"
#include "koko/aggregate.h"
#include "koko/ast.h"
#include "koko/compile.h"
#include "koko/planner.h"
#include "koko/score_cache.h"
#include "ner/entity_recognizer.h"
#include "storage/doc_store.h"
#include "text/document.h"
#include "util/timer.h"

namespace koko {

/// One result tuple. `values` holds one string per output column;
/// `scores` holds the aggregated evidence score per satisfying clause
/// (empty when the query has none).
struct ResultRow {
  uint32_t doc = 0;
  uint32_t sid = 0;
  std::vector<std::string> values;
  std::vector<double> scores;
};

/// Streaming row consumer (EngineOptions::sink): invoked once per final
/// result row, in row order, as soon as the row survives the aggregate
/// filters — before later candidates are evaluated. The rows delivered are
/// exactly `QueryResult::rows` (same rows, same order); the sink runs on
/// the calling thread, so it needs no synchronisation of its own.
using RowSink = std::function<void(const ResultRow&)>;

struct QueryResult {
  std::vector<std::string> output_names;
  std::vector<ResultRow> rows;
  /// Wall time per phase: Normalize, DPLI, LoadArticle, GSP, extract,
  /// satisfying — the Table 2 breakdown. GSP is a sub-phase of extract
  /// (skip plans are generated per sentence inside the extract scan), so
  /// `phases.Total()` sums only the other five. Value-only filters decide
  /// bindings inside extract; satisfying times the document-reading
  /// clauses and conditions that remain. LoadArticle is near zero
  /// over a resident corpus, whose documents are borrowed in place; with a
  /// document store it is the per-article deserialisation the paper's
  /// DBMS-backed engine pays.
  PhaseStats phases;
  size_t candidate_sentences = 0;
  /// Candidates the extract scan drew before the row budget provably
  /// closed. Equals `candidate_sentences` unless streaming top-k stopped
  /// early, in which case `early_terminated` is set and the tail candidates
  /// were never loaded or evaluated (DPLI still counted them — the
  /// candidate set is a pruning property, identical with or without early
  /// termination).
  size_t scanned_candidates = 0;
  bool early_terminated = false;
  /// The cost-ordered query plan executed on shard 0 (planner-enabled runs
  /// against the index). Null when the planner was off
  /// (the compile-order plan is not surfaced) or the query bypassed the
  /// index. See koko/explain.h's ExplainPlan.
  std::shared_ptr<const QueryPlan> plan;
  /// DPLI's accumulator size after each executed atom of `plan`, in plan
  /// order (PlannedCandidates::atom_sizes of the same shard); shorter than
  /// `plan->atoms` when an empty accumulator short-circuited the rest.
  std::vector<uint64_t> plan_actuals;
  /// Values the query's value-only filters (CompiledQuery::value_filters)
  /// decided, and how many of those they rejected. An entity or node
  /// variable counts each value id whose verdict no earlier query sharing
  /// its verdict table had stored, so a warm query through one ScoreCache
  /// reads 0; any other variable counts each distinct (variable, value
  /// text) pair.
  size_t filter_values_decided = 0;
  size_t filter_values_rejected = 0;
};

struct EngineOptions {
  /// Generate skip plans (§4.3). When false the evaluator runs the naive
  /// nested-loop strategy over every variable including elastic spans —
  /// the KOKO&NOGSP baseline of Table 1.
  bool use_gsp = true;
  /// Use the multi-index for sentence pruning. When false every sentence
  /// is considered (reference evaluator for correctness tests).
  bool use_index = true;
  /// Expand descriptors (§4.4.1(a)). When false descriptor conditions
  /// score zero — the Figure 5 ablation.
  bool use_descriptors = true;
  /// Safety valve for adversarial queries. Caps pending rows: rows that
  /// passed the value filters, before the document-reading satisfying and
  /// excluding conditions drop any (docs/WORKLOADS.md).
  size_t max_rows = std::numeric_limits<size_t>::max();
  /// Inert: every query runs on its caller's thread, whatever this holds.
  /// Kept only so existing callers that set it still compile; concurrency
  /// comes from running many queries at once (serve/query_service.h).
  size_t num_threads = 1;
  /// Cross-query (doc, clause, value) score cache for the aggregate phase
  /// (borrowed, thread-safe; must outlive the call). Clauses that read the
  /// document keep their scores in it; value filters on entity and node
  /// variables keep their verdicts in its tables (ScoreCache::Verdicts).
  /// When null — the default — the engine uses query-local ones,
  /// rebuilding warm state per query. A shared cache persists aggregate
  /// scores across queries; scores are deterministic, so hits are
  /// byte-identical to recomputation.
  /// Entries are keyed by Aggregator::ClauseKey — clause content *and*
  /// scoring configuration (use_descriptors, ontology sets) — so one cache
  /// may serve heterogeneous option sets against one corpus. Never share a
  /// cache across different corpora.
  ScoreCache* score_cache = nullptr;
  /// Cost-based clause ordering for the DPLI phase (koko/planner.h): run
  /// the clause intersections in ascending estimated selectivity. `false` runs
  /// the same plan through the same executor in compile order, bypassing
  /// `plan_cache` (the parity arm). Candidate sets are **byte-identical**
  /// either way — plan order changes cost, never results.
  bool use_planner = true;
  /// Cross-query compiled-plan cache keyed by clause fingerprint (borrowed,
  /// thread-safe; must outlive the call). Null — the default — rebuilds the
  /// (cheap, statistics-only) plan per query. QueryService owns one and
  /// threads it through here. Never share across corpora; Clear() on index
  /// rebuild.
  PlanCache* plan_cache = nullptr;
  /// Streaming sink: when non-null, every final row is delivered to it as
  /// extraction produces it (ascending-sid order preserved), before later
  /// candidates are evaluated — a consumer needing only the first rows can
  /// act before the query finishes. `QueryResult::rows` is still returned
  /// in full. Borrowed; invoked on the calling thread.
  const RowSink* sink = nullptr;
  /// Streaming top-k early termination: with a finite `max_rows`, stop
  /// drawing candidates once the row budget is provably satisfied — the
  /// tail candidates are never loaded or evaluated. Rows are byte-identical
  /// to the full run for every `max_rows`: the budget cuts the same
  /// ascending-sid row stream at the same point; only
  /// `scanned_candidates`/`early_terminated` reveal the saving. `false`
  /// evaluates without a sink as one full chunk cut at `max_rows` (the
  /// bench baseline) and always reports every candidate as scanned.
  bool early_terminate = true;
};

/// \brief The KOKO query evaluation engine (Figure 2).
///
/// Executes a query in four phases: Normalize (CompileQuery), Decompose
/// Paths & Lookup Indices (Algorithm 1), Generate Skip Plan + extract
/// (Algorithm 2 per relevant sentence), and Aggregate (satisfying /
/// excluding clauses over whole documents).
///
/// **Value ids.** The constructor interns the exact text (what
/// `Sentence::AppendSpanText` gives) of every token and entity mention of
/// the corpus into one dense id space — equal text, equal id — and keeps
/// each sentence's ids. Entity and node bindings carry their id, and
/// pending rows hash and dedup those variables by id instead of by text.
/// The corpus must not change after construction: a query against a corpus
/// with another sentence count fails with InvalidArgument.
///
/// **Value filters.** A satisfying clause whose conditions all read only
/// the value (`str(x) contains`, `mentions`, `matches`, `in dict`,
/// `SimilarTo`) and each such excluding condition are decided once per
/// distinct value, with no document in the key, and drop the bindings they
/// reject before enumeration (derived span, subtree and elastic variables
/// when their row is emitted). An entity or node variable's verdicts live
/// in a `VerdictTable` indexed by value id and keyed by its filter set:
/// the `score_cache`'s, which outlives the query, or a query-local one
/// without a cache. Other variables keep a per-query memo by value text.
/// A rejected binding never becomes a pending row, so it neither reaches
/// Aggregate nor counts against `max_rows`; a surviving row takes that
/// clause's score from the same table or memo. This holds on every path,
/// `use_index = false` included.
///
/// **DPLI phase contract.** Candidate pruning is columnar: every prunable
/// atom of the compiled query — each dominant node-variable path, each
/// entity variable, each literal — contributes one sorted, deduplicated
/// sentence-id set, served from the index's precomputed per-word /
/// per-entity-type / per-trie-node projections where possible
/// (`KokoPathSidLookup`, `KokoIndex::WordSids`, `KokoIndex::EntityTypeSids`).
/// Stored projections stay block compressed (`BlockList`) and per-query
/// lists are decoded (`SidList`). One executor (`CollectPlannedCandidates`)
/// intersects the atoms in plan order — ascending estimated selectivity, or
/// compile order with `use_planner` off — with one in-place kernel that
/// gallops over the compressed blocks (`Intersect(SidSetView, SidSetView)`);
/// every path atom after the first is evaluated only over the running
/// candidate set, which it receives as its lookup filter. The result is
/// the candidate set in ascending sid order. The candidate
/// set is *complete* (a superset of all answer
/// sentences — pruning never loses answers) but may be unsound (§4.2.2);
/// the extract phase re-validates every candidate. An unconstrained query
/// (no prunable atom, or `use_index = false`) degrades to all sentences.
/// An atom whose list is empty proves the answer empty and short-circuits
/// the query.
class Engine {
 public:
  /// All pointers are borrowed and must outlive the engine. DPLI runs shard
  /// by shard and each shard's candidates append in shard order, which is
  /// ascending sid order, so a query returns byte-identical results for
  /// every shard count K (K = 1 is the paper's single multi-index). The
  /// index must cover exactly `corpus`'s sentences; a query against one that
  /// does not fails with InvalidArgument.
  Engine(const AnnotatedCorpus* corpus, const ShardedKokoIndex* index,
         const EmbeddingModel* embeddings, const EntityRecognizer* recognizer);

  /// Optional: serve LoadArticle from a serialized document store. Without
  /// one, queries borrow the resident corpus's documents (no copy); with
  /// one, every candidate article is deserialised into a query-owned copy,
  /// as the paper's DBMS-backed engine does. Rows are identical either way.
  void set_document_store(const DocumentStore* store) { store_ = store; }

  /// Registers a domain ontology set used by descriptor expansion.
  void AddOntologySet(const std::vector<std::string>& related) {
    ontology_sets_.push_back(related);
  }

  /// Parses, compiles and executes KOKO query text.
  Result<QueryResult> ExecuteText(std::string_view query_text,
                                  const EngineOptions& options) const;
  Result<QueryResult> ExecuteText(std::string_view query_text) const {
    return ExecuteText(query_text, EngineOptions());
  }

  Result<QueryResult> Execute(const Query& query, const EngineOptions& options) const;
  Result<QueryResult> ExecuteCompiled(const CompiledQuery& query,
                                      const EngineOptions& options) const;

 private:
  // Explains scores with this engine's model, recognizer and ontology sets.
  friend class Explainer;

  const AnnotatedCorpus* corpus_;
  const ShardedKokoIndex* index_;
  const EmbeddingModel* embeddings_;
  const EntityRecognizer* recognizer_;
  const DocumentStore* store_ = nullptr;
  std::vector<std::vector<std::string>> ontology_sets_;
  // Value ids: sentence sid's token ids sit at value_ids_[value_base_[sid]]
  // onward, followed by its entity mentions' ids in `entities` order.
  size_t num_value_ids_ = 0;
  std::vector<uint32_t> value_base_;
  std::vector<uint32_t> value_ids_;
};

}  // namespace koko

#endif  // KOKO_KOKO_ENGINE_H_
