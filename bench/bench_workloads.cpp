// Paper-figure traffic-replay harness: revives the fig3/fig4/fig5/fig7/
// fig8/table1 workload shapes (src/replay/workloads.h) on the current
// serving stack — ShardedKokoIndex saved, reloaded zero-copy (kMap, file
// unlinked while mapped), planner + score/plan caches behind one
// QueryService per class — and replays a deterministic mixed-class
// schedule in closed- and open-loop arrival modes, each with a cold and a
// warm cache phase over the identical schedule.
//
// Emits BENCH_workloads.json: one entry per (arrival, phase, class) with
// p50/p99 latency, cache hit deltas, planner representation choices, and
// early-termination counters. Every replayed query's rows are digested
// against a serial seed-semantics reference run, so the bench doubles as a
// determinism check under traffic; any mismatch or error fails the run.
//
// Usage: bench_workloads [scale] [queries_per_phase] [clients]
#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "index/sharded_index.h"
#include "replay/traffic.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

using namespace koko;

namespace {

constexpr size_t kIndexShards = 3;

struct WorkloadUnderTest {
  replay::Workload workload;
  std::unique_ptr<ShardedKokoIndex> index;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
  std::vector<uint64_t> expected_digests;
};

// Sharded build -> save -> zero-copy reload -> unlink while mapped: the
// shipped serving configuration (the mapping outlives the file, PR 5's
// lifetime contract, exercised here on every class).
std::unique_ptr<ShardedKokoIndex> BuildMappedIndex(
    const AnnotatedCorpus& corpus, const std::string& name) {
  auto built = ShardedKokoIndex::Build(corpus, kIndexShards);
  const std::string path = "bench_workloads_" + name + ".idx";
  if (!built->Save(path).ok()) {
    std::fprintf(stderr, "save failed for %s\n", name.c_str());
    return nullptr;
  }
  ShardedKokoIndex::LoadOptions load;
  load.mode = LoadMode::kMap;
  auto loaded = ShardedKokoIndex::Load(path, load);
  std::remove(path.c_str());
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed for %s: %s\n", name.c_str(),
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  return std::move(*loaded);
}

std::unique_ptr<QueryService> MakeService(const Engine* engine,
                                          size_t clients) {
  QueryService::Options options;
  options.max_inflight = clients;
  return std::make_unique<QueryService>(engine, options, kIndexShards);
}

void EmitPhase(bench::JsonEmitter* emitter, const char* arrival,
               const replay::PhaseReport& phase) {
  for (const replay::ClassReport& cls : phase.classes) {
    const uint64_t score_total = cls.score_cache_hits + cls.score_cache_misses;
    const uint64_t plan_total = cls.plan_cache_hits + cls.plan_cache_misses;
    emitter->AddEntry(
        std::string(arrival) + "/" + phase.phase + "/" + cls.name,
        {{"arrival", arrival}, {"phase", phase.phase}, {"load_mode", "map"}},
        {{"queries", static_cast<double>(cls.queries)},
         {"rows", static_cast<double>(cls.rows)},
         {"errors", static_cast<double>(cls.errors)},
         {"digest_mismatches", static_cast<double>(cls.digest_mismatches)},
         {"p50_ms", cls.latency.p50_ms},
         {"p99_ms", cls.latency.p99_ms},
         {"mean_ms", cls.latency.mean_ms},
         {"max_ms", cls.latency.max_ms},
         {"early_terminated", static_cast<double>(cls.early_terminated)},
         {"scanned_candidates", static_cast<double>(cls.scanned_candidates)},
         {"candidate_sentences",
          static_cast<double>(cls.candidate_sentences)},
         {"planned_queries", static_cast<double>(cls.planned_queries)},
         {"filtered_paths", static_cast<double>(cls.filtered_paths)},
         {"score_cache_hits", static_cast<double>(cls.score_cache_hits)},
         {"score_cache_misses",
          static_cast<double>(cls.score_cache_misses)},
         {"score_cache_hit_rate",
          score_total == 0 ? 0.0
                           : static_cast<double>(cls.score_cache_hits) /
                                 static_cast<double>(score_total)},
         {"plan_cache_hits", static_cast<double>(cls.plan_cache_hits)},
         {"plan_cache_misses", static_cast<double>(cls.plan_cache_misses)},
         {"plan_cache_hit_rate",
          plan_total == 0 ? 0.0
                          : static_cast<double>(cls.plan_cache_hits) /
                                static_cast<double>(plan_total)}});
  }
}

void PrintPhase(const char* arrival, const replay::PhaseReport& phase) {
  std::printf("  [%s/%s] %.3fs wall\n", arrival, phase.phase.c_str(),
              phase.wall_seconds);
  for (const replay::ClassReport& cls : phase.classes) {
    std::printf(
        "    %-16s q=%3zu rows=%5zu err=%zu mism=%zu | p50=%7.2fms "
        "p99=%7.2fms | score %llu/%llu plan %llu/%llu | et=%zu\n",
        cls.name.c_str(), cls.queries, cls.rows, cls.errors,
        cls.digest_mismatches, cls.latency.p50_ms, cls.latency.p99_ms,
        static_cast<unsigned long long>(cls.score_cache_hits),
        static_cast<unsigned long long>(cls.score_cache_hits +
                                        cls.score_cache_misses),
        static_cast<unsigned long long>(cls.plan_cache_hits),
        static_cast<unsigned long long>(cls.plan_cache_hits +
                                        cls.plan_cache_misses),
        cls.early_terminated);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  const size_t queries = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 96;
  const size_t clients = argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 4;
  std::printf(
      "Workload traffic replay: scale=%d, %zu queries/phase, %zu clients\n\n",
      scale, queries, clients);

  Pipeline pipeline;
  const Pipeline& const_pipeline = pipeline;
  EmbeddingModel embeddings;

  replay::WorkloadOptions workload_options;
  workload_options.scale = scale;
  auto workloads = replay::BuildAllWorkloads(pipeline, workload_options);
  if (!workloads.ok()) {
    std::fprintf(stderr, "workload build failed: %s\n",
                 workloads.status().ToString().c_str());
    return 1;
  }

  // Units are heap-allocated: the engine and service borrow pointers into
  // the unit (corpus, index), so the unit's address must survive the
  // vector growing.
  std::vector<std::unique_ptr<WorkloadUnderTest>> fleet;
  for (replay::Workload& workload : *workloads) {
    auto unit_ptr = std::make_unique<WorkloadUnderTest>();
    WorkloadUnderTest& unit = *unit_ptr;
    unit.workload = std::move(workload);
    unit.index = BuildMappedIndex(unit.workload.corpus, unit.workload.name);
    if (unit.index == nullptr) return 1;
    unit.engine = std::make_unique<Engine>(&unit.workload.corpus,
                                           unit.index.get(), &embeddings,
                                           &const_pipeline.recognizer());
    // Reference digests from the seed-semantics path: serial, planner off,
    // no early termination — the baseline every replayed result must match
    // byte for byte.
    EngineOptions reference;
    reference.use_planner = false;
    reference.early_terminate = false;
    for (const replay::WorkloadQuery& query : unit.workload.queries) {
      auto result = unit.engine->Execute(query.query, reference);
      if (!result.ok()) {
        std::fprintf(stderr, "reference run failed (%s/%s): %s\n",
                     unit.workload.name.c_str(), query.name.c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      unit.expected_digests.push_back(replay::RowDigest(*result));
    }
    std::printf("built %-16s %5zu sentences, %zu queries, mapped=%d\n",
                unit.workload.name.c_str(), unit.workload.corpus.NumSentences(),
                unit.workload.queries.size(), unit.index->mapped() ? 1 : 0);
    fleet.push_back(std::move(unit_ptr));
  }
  std::printf("\n");

  bench::JsonEmitter emitter("workloads");
  emitter.SetMeta("scale", static_cast<double>(scale));
  emitter.SetMeta("replay_queries", static_cast<double>(queries));
  emitter.SetMeta("clients", static_cast<double>(clients));
  emitter.SetMeta("index_shards", static_cast<double>(kIndexShards));
  emitter.SetMeta("workload_classes", static_cast<double>(fleet.size()));

  size_t failures = 0;
  const struct {
    const char* name;
    replay::ArrivalProcess arrival;
  } arrivals[] = {{"closed", replay::ArrivalProcess::kClosed},
                  {"open", replay::ArrivalProcess::kOpen}};
  for (const auto& arrival : arrivals) {
    // Fresh services per arrival mode: the cold phase must start from
    // empty caches to mean anything.
    std::vector<replay::ReplayTarget> targets;
    for (std::unique_ptr<WorkloadUnderTest>& unit : fleet) {
      unit->service = MakeService(unit->engine.get(), clients);
      targets.push_back({&unit->workload, unit->service.get(),
                         unit->expected_digests});
    }
    replay::TrafficOptions traffic;
    traffic.arrival = arrival.arrival;
    traffic.clients = clients;
    traffic.queries = queries;
    traffic.open_rate_qps = 100.0;
    replay::ReplayReport report = replay::ReplayTraffic(targets, traffic);
    PrintPhase(arrival.name, report.cold);
    PrintPhase(arrival.name, report.warm);
    EmitPhase(&emitter, arrival.name, report.cold);
    EmitPhase(&emitter, arrival.name, report.warm);
    failures += report.TotalErrors();
  }

  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_workloads.json\n");
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "\n%zu errors/digest mismatches — determinism contract "
                 "violated under traffic\n",
                 failures);
    return 1;
  }
  std::printf("\nwrote BENCH_workloads.json (all digests matched)\n");
  return 0;
}
