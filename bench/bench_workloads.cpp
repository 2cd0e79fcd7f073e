// Paper-figure traffic-replay harness: revives the fig3/fig4/fig5/fig7/
// fig8/table1 workload shapes (src/replay/workloads.h) on the current
// serving stack — ShardedKokoIndex saved, reloaded zero-copy (kMap, file
// unlinked while mapped), planner + score/plan caches behind one
// QueryService per class — and replays one deterministic mixed-class
// schedule in four arms: in process and over the wire (one KokoServer per
// class, real TCP clients), each in closed- and open-loop arrival mode,
// each with a cold and a warm cache phase over the identical schedule.
// Two burst phases then fire every client at one server at once: with
// batching opted out (to prove concurrent admissions: peak_inflight > 1)
// and batchable (to exercise leader/follower coalescing over the wire).
//
// Emits BENCH_workloads.json: one entry per (transport, arrival, phase,
// class) with p50/p99 latency, cache hit deltas, planner counters and
// early-termination counters, plus the wire fleet's admission peaks,
// batch counters and request counts in meta. Every replayed query's rows
// are digested against the use_index=false full-scan reference, so the
// bench doubles as a determinism check under traffic; any mismatch,
// error, or wire arm whose per-class counts differ from its in-process
// twin fails the run.
//
// Usage: bench_workloads [scale] [queries_per_phase] [clients]
#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "replay/traffic.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

using namespace koko;

namespace {

constexpr size_t kIndexShards = 3;
constexpr int kBurstRounds = 3;
/// Most unbatchable bursts fired while waiting for two requests to overlap.
constexpr int kMaxUnbatchableBursts = 20;

struct WorkloadUnderTest {
  replay::Workload workload;
  std::unique_ptr<ShardedKokoIndex> index;
  std::unique_ptr<Engine> engine;
  std::vector<uint64_t> expected_digests;
  /// The current arm's service, and its server on a wire arm.
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::KokoServer> server;
};

/// Admission and wire counters over every server the run started.
struct FleetMeta {
  uint64_t peak_inflight = 0;
  uint64_t peak_waiting = 0;
  uint64_t admission_rejected = 0;
  uint64_t batch_leaders = 0;
  uint64_t batch_followers = 0;
  uint64_t batch_peak_group = 0;
  uint64_t wire_requests = 0;
  uint64_t wire_protocol_errors = 0;
};

// Sharded build -> save -> zero-copy reload -> unlink while mapped: the
// shipped serving configuration (the mapping outlives the file, a lifetime
// contract exercised here on every class).
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

/// Gives `unit` a fresh service (the cold phase must start from empty
/// caches to mean anything) and, for the wire, a started server over it.
bool Serve(WorkloadUnderTest* unit, size_t clients, bool wire) {
  QueryService::Options options;
  options.max_inflight = clients;
  unit->service = std::make_unique<QueryService>(unit->engine.get(), options,
                                                 kIndexShards);
  if (!wire) return true;
  unit->server = std::make_unique<net::KokoServer>(unit->service.get(),
                                                   net::KokoServer::Options());
  const Status started = unit->server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed for %s: %s\n",
                 unit->workload.name.c_str(), started.ToString().c_str());
    return false;
  }
  return true;
}

/// Stops `unit`'s server, folding its counters into `meta`, then drops
/// the service.
void Retire(WorkloadUnderTest* unit, FleetMeta* meta) {
  if (unit->server != nullptr) {
    unit->server->Stop();
    const QueryService::Stats service = unit->service->stats();
    meta->peak_inflight = std::max(meta->peak_inflight, service.peak_inflight);
    meta->peak_waiting = std::max(meta->peak_waiting, service.peak_waiting);
    meta->admission_rejected += service.rejected;
    const net::KokoServer::Stats server = unit->server->stats();
    meta->batch_leaders += server.batch.leaders;
    meta->batch_followers += server.batch.followers;
    meta->batch_peak_group =
        std::max(meta->batch_peak_group, server.batch.peak_group);
    meta->wire_requests += server.requests;
    meta->wire_protocol_errors += server.protocol_errors;
    unit->server.reset();
  }
  unit->service.reset();
}

/// Fires every client at `unit`'s server simultaneously (spin barrier)
/// with the class's first query, so the admission queue provably sees
/// concurrent in-flight executions. `allow_batch` false forces distinct
/// admissions (peak_inflight > 1); true lets the coalescer turn the burst
/// into leader + followers. Returns the failed requests.
size_t RunBurst(const WorkloadUnderTest& unit, size_t clients,
                bool allow_batch) {
  std::atomic<size_t> ready{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < clients; ++w) {
    workers.emplace_back([&]() {
      auto client = net::KokoClient::Connect(unit.server->port());
      // A failed connection still takes the barrier turns — the other
      // clients must not spin forever waiting for it.
      for (int round = 0; round < kBurstRounds; ++round) {
        ready.fetch_add(1);
        while (ready.load() < clients * static_cast<size_t>(round + 1)) {
          std::this_thread::yield();
        }
        if (!client.ok()) {
          failures.fetch_add(1);
          continue;
        }
        net::NetRequest request;
        request.query_text = unit.workload.queries.front().text;
        request.allow_batch = allow_batch;
        auto wire = client->Query(request);
        if (!wire.ok() || !wire->status.ok() ||
            replay::RowDigest(wire->rows) != unit.expected_digests.front()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return failures.load();
}

/// Counts classes whose query or row totals differ between two reports of
/// the same schedule (the in-process and the wire arm of one arrival).
size_t CountScheduleMismatches(const replay::ReplayReport& a,
                               const replay::ReplayReport& b) {
  size_t mismatches = 0;
  for (const auto& [pa, pb] : {std::pair{&a.cold, &b.cold},
                               std::pair{&a.warm, &b.warm}}) {
    for (size_t c = 0; c < pa->classes.size(); ++c) {
      if (pa->classes[c].queries != pb->classes[c].queries ||
          pa->classes[c].rows != pb->classes[c].rows) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

void EmitPhase(bench::JsonEmitter* emitter, const char* transport,
               const char* arrival, const replay::PhaseReport& phase) {
  for (const replay::ClassReport& cls : phase.classes) {
    const uint64_t score_total = cls.score_cache_hits + cls.score_cache_misses;
    const uint64_t plan_total = cls.plan_cache_hits + cls.plan_cache_misses;
    emitter->AddEntry(
        std::string(transport) + "/" + arrival + "/" + phase.phase + "/" +
            cls.name,
        {{"transport", transport},
         {"arrival", arrival},
         {"phase", phase.phase},
         {"load_mode", "map"}},
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

void PrintPhase(const char* transport, const char* arrival,
                const replay::PhaseReport& phase) {
  std::printf("  [%s/%s/%s] %.3fs wall\n", transport, arrival,
              phase.phase.c_str(), phase.wall_seconds);
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
    // Reference digests from the full-scan evaluator, which reads no
    // index: the baseline every replayed result must match byte for byte.
    EngineOptions reference;
    reference.use_index = false;
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
  FleetMeta meta;
  const struct {
    const char* name;
    replay::ArrivalProcess arrival;
  } arrivals[] = {{"closed", replay::ArrivalProcess::kClosed},
                  {"open", replay::ArrivalProcess::kOpen}};
  const char* const transports[] = {"inprocess", "wire"};
  for (const auto& arrival : arrivals) {
    replay::TrafficOptions traffic;
    traffic.arrival = arrival.arrival;
    traffic.clients = clients;
    traffic.queries = queries;
    traffic.open_rate_qps = 100.0;
    replay::ReplayReport reports[2];
    for (int wire = 0; wire < 2; ++wire) {
      std::vector<replay::ReplayTarget> targets;
      for (std::unique_ptr<WorkloadUnderTest>& unit : fleet) {
        if (!Serve(unit.get(), clients, wire == 1)) return 1;
        targets.push_back({&unit->workload, unit->service.get(),
                           unit->server.get(), unit->expected_digests});
      }
      reports[wire] = replay::ReplayTraffic(targets, traffic);
      for (std::unique_ptr<WorkloadUnderTest>& unit : fleet) {
        Retire(unit.get(), &meta);
      }
      for (const replay::PhaseReport* phase :
           {&reports[wire].cold, &reports[wire].warm}) {
        PrintPhase(transports[wire], arrival.name, *phase);
        EmitPhase(&emitter, transports[wire], arrival.name, *phase);
      }
      failures += reports[wire].TotalErrors();
    }
    failures += CountScheduleMismatches(reports[0], reports[1]);
  }

  // Burst phases against class 0's server: unbatchable (forces concurrent
  // admissions — the peak_inflight > 1 proof) then batchable (drives the
  // coalescer's leader/follower path over the wire). A short query can
  // finish before its twin is admitted, so the unbatchable burst repeats
  // until two requests overlapped, at most kMaxUnbatchableBursts times; a
  // server that serializes its connections still never gets there.
  WorkloadUnderTest& burst = *fleet.front();
  if (!Serve(&burst, clients, /*wire=*/true)) return 1;
  for (int b = 0; b < kMaxUnbatchableBursts; ++b) {
    failures += RunBurst(burst, clients, /*allow_batch=*/false);
    if (clients <= 1 || burst.service->stats().peak_inflight > 1) break;
  }
  failures += RunBurst(burst, clients, /*allow_batch=*/true);
  Retire(&burst, &meta);

  emitter.SetMeta("peak_inflight", static_cast<double>(meta.peak_inflight));
  emitter.SetMeta("peak_waiting", static_cast<double>(meta.peak_waiting));
  emitter.SetMeta("admission_rejected",
                  static_cast<double>(meta.admission_rejected));
  emitter.SetMeta("batch_leaders", static_cast<double>(meta.batch_leaders));
  emitter.SetMeta("batch_followers",
                  static_cast<double>(meta.batch_followers));
  emitter.SetMeta("batch_peak_group",
                  static_cast<double>(meta.batch_peak_group));
  emitter.SetMeta("wire_requests", static_cast<double>(meta.wire_requests));
  emitter.SetMeta("wire_protocol_errors",
                  static_cast<double>(meta.wire_protocol_errors));
  std::printf(
      "\nwire fleet: peak_inflight=%llu peak_waiting=%llu batch=%llu+%llu "
      "(peak group %llu) requests=%llu\n",
      static_cast<unsigned long long>(meta.peak_inflight),
      static_cast<unsigned long long>(meta.peak_waiting),
      static_cast<unsigned long long>(meta.batch_leaders),
      static_cast<unsigned long long>(meta.batch_followers),
      static_cast<unsigned long long>(meta.batch_peak_group),
      static_cast<unsigned long long>(meta.wire_requests));

  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_workloads.json\n");
    return 1;
  }
  if (clients > 1 && meta.peak_inflight <= 1) {
    std::fprintf(stderr,
                 "FAIL: peak_inflight=%llu with %zu clients — the wire "
                 "front end never achieved concurrent admissions\n",
                 static_cast<unsigned long long>(meta.peak_inflight),
                 clients);
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr,
                 "\n%zu errors/digest or schedule mismatches — determinism "
                 "contract violated under traffic\n",
                 failures);
    return 1;
  }
  std::printf("\nwrote BENCH_workloads.json (all digests matched)\n");
  return 0;
}
