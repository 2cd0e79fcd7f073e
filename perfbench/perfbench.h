// Shared types of the repository benchmark (see README.md in this
// directory). The benchmark drives the shipped stack from outside: every
// number comes from timing calls into the layers' public functions.
#ifndef KOKO_PERFBENCH_PERFBENCH_H_
#define KOKO_PERFBENCH_PERFBENCH_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "embed/embedding.h"
#include "index/sharded_index.h"
#include "koko/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "nlp/pipeline.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

namespace perfbench {

using koko::Result;
using koko::Status;
using Clock = std::chrono::steady_clock;

enum class WorkloadKind { kWikiDpli, kWikiExtract, kReplayWire };

/// Fixed serving configuration of one workload. The busy-thread budget is
/// the most threads that can be runnable at once by construction; main()
/// refuses to run when it exceeds nproc.
struct Config {
  WorkloadKind kind = WorkloadKind::kWikiDpli;
  std::string name;
  size_t clients = 2;       ///< Closed-loop client threads.
  size_t pool_workers = 2;  ///< ThreadPool workers per QueryService.
  size_t max_inflight = 2;  ///< Admission bound per QueryService.
  bool wire = false;        ///< Requests travel KokoClient -> KokoServer.

  size_t BusyThreadBudget() const;
};

/// Returns false for an unknown workload name.
bool ConfigFor(const std::string& workload, Config* config);

/// One distinct request of a workload: query text, row cap, and the served
/// corpus it targets (always 0 except on the wire workload).
struct BenchQuery {
  std::string cls;   ///< Query class, for the per-class p50.
  std::string name;
  std::string text;
  koko::Query query;  ///< Parsed `text`.
  size_t corpus = 0;
  uint64_t max_rows = 0;  ///< 0 = uncapped.
  uint64_t digest = 0;    ///< Serial planner-off reference RowDigest.
  size_t reference_rows = 0;
  size_t reference_sids = 0;  ///< Distinct sentences among reference rows.
};

/// Everything a run derives from (workload, seed) before the stack under
/// test is set up. The program under test only ever sees these.
struct Inputs {
  Config config;
  uint64_t seed = 0;
  std::vector<koko::RawDocument> wiki_docs;   ///< Wiki workloads.
  koko::replay::WorkloadOptions replay_options;  ///< replay_wire.
  std::vector<BenchQuery> queries;
  /// Indices into `queries`; the closed loop walks it cyclically.
  std::vector<uint32_t> schedule;
};

/// One served corpus: annotated corpus, mapped index, engine, service and
/// (wire workload) its server.
struct Served {
  std::string name;
  koko::AnnotatedCorpus corpus;
  std::unique_ptr<koko::ShardedKokoIndex> index;
  std::unique_ptr<koko::Engine> engine;
  std::unique_ptr<koko::QueryService> service;
  std::unique_ptr<koko::net::KokoServer> server;
  uint64_t image_bytes = 0;
};

struct SetupTimes {
  double annotate_s = 0;
  double build_s = 0;
  double save_s = 0;
  double load_s = 0;
  double server_s = 0;
  double Total() const {
    return annotate_s + build_s + save_s + load_s + server_s;
  }
};

/// The stack under test plus the process-wide objects it borrows.
struct Stack {
  koko::Pipeline pipeline;
  koko::EmbeddingModel embeddings;
  std::vector<std::unique_ptr<Served>> served;

  uint64_t ImageBytes() const;
  uint64_t TextBytes() const;  ///< Surface text of every annotated sentence.
  size_t Documents() const;
  size_t Sentences() const;
  size_t ResidentPostingBytes() const;
};

// ---- inputs.cpp -------------------------------------------------------------

/// Generates the corpus recipe and candidate query list of `config` from
/// `seed`. Wiki workloads annotate their corpus once here (untimed) to
/// draw queries from its vocabulary.
Status MakeInputs(const Config& config, uint64_t seed, Inputs* inputs);

/// Applies the reference-based query selection (wiki_extract keeps only
/// low-selectivity tree queries of at most two rows per sentence) and
/// draws the seeded schedule.
Status FinishInputs(const Stack& stack, Inputs* inputs);

// ---- stack.cpp --------------------------------------------------------------

inline constexpr size_t kIndexShards = 4;

/// Annotates, builds, saves, map-loads and (wire) starts servers: one
/// timed set-up of the whole stack, replacing `stack->served`. Index
/// images are written under `work_dir` and unlinked once mapped.
Status SetUp(const Inputs& inputs, const std::string& work_dir,
             bool start_servers, Stack* stack, SetupTimes* times);

/// Starts a server over every served corpus that has none yet.
Status StartServers(Stack* stack);

/// Serial reference with the planner and early termination off: fills
/// every query's digest, row count and covered sentences.
Status ComputeReferences(const Stack& stack, Inputs* inputs);

/// Result of one request, whichever layer carried it.
struct Reply {
  bool ok = false;
  bool refused = false;         ///< kUnavailable admission refusal.
  bool protocol_error = false;  ///< Wire transport/framing failure.
  bool mismatch = false;        ///< Rows differ from the reference.
  uint64_t rows = 0;
  uint64_t candidates = 0;
  uint64_t scanned = 0;
  bool has_phases = false;
  koko::PhaseStats phases;
  std::vector<koko::ResultRow> result_rows;  ///< Kept only when asked.
};

/// One closed-loop client: in-process QueryService calls, or one
/// persistent connection per served corpus on the wire workload.
class Client {
 public:
  static Result<Client> Connect(const Stack& stack, bool wire);
  Reply Send(const BenchQuery& query, bool keep_rows = false);

 private:
  const Stack* stack_ = nullptr;
  bool wire_ = false;
  std::vector<koko::net::KokoClient> conns_;
};

// ---- trace.cpp --------------------------------------------------------------

inline constexpr std::array<const char*, 6> kPhaseNames = {
    "Normalize", "DPLI", "LoadArticle", "GSP", "extract", "satisfying"};

/// One traced interval at a layer boundary. Spans of one request share
/// `request`; `parent` indexes the enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t parent = -1;
  double start_ms = 0;
  double end_ms = 0;
  // What the layer itself reported for the call.
  bool has_counts = false;
  uint64_t rows = 0;
  uint64_t candidates = 0;
  uint64_t scanned = 0;
  uint64_t bytes = 0;
  bool has_phases = false;
  std::array<double, kPhaseNames.size()> phase_ms{};

  double duration_ms() const { return end_ms - start_ms; }
};

/// Spans of one thread, kept in memory (no locking: one writer).
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}
  size_t Begin(const char* name, uint64_t request, int64_t parent = -1);
  void End(size_t span);
  void Attach(size_t span, const Reply& reply);
  Span& at(size_t span) { return spans_[span]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  double NowMs() const;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Concatenates per-thread logs, rebasing parent indices.
std::vector<Span> MergeLogs(const std::vector<SpanLog>& logs);

/// Serial layer probe: once per distinct query, calls parse, compile,
/// plan, candidates, Engine::Execute, QueryService::Run, KokoClient::Query
/// and row encode/decode under one probe request id. Counts the calls
/// whose rows differ from the reference into *mismatches.
Status RunLayerProbe(Stack* stack, const Inputs& inputs, uint64_t first_request,
                     SpanLog* log, size_t* mismatches);

/// Per-span-name self time: duration minus the part children cover.
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans);

/// Writes the spans as JSON; returns false on an I/O error.
bool WriteTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // KOKO_PERFBENCH_PERFBENCH_H_
