// Network serving bench: drives a fleet of KokoServers (one per paper
// workload class, each over its own QueryService with a zero-copy mapped
// index) from real TCP clients and measures wire-level request latency in
// the two canonical arrival modes — closed loop (each client sends its
// next request when the previous returns; measures capacity) and open
// loop (Poisson arrivals at a fixed rate, latency measured from the
// scheduled arrival so queueing delay is visible). A burst phase fires
// all clients at one server simultaneously, once with batching opted out
// (to prove genuine concurrent admissions: peak_inflight > 1) and once
// batchable (to exercise leader/follower coalescing over the wire).
//
// Every response's rows are digested against the serial seed-semantics
// reference; any error or digest mismatch fails the run — the bench is
// also a wire-level determinism check under load.
//
// Emits BENCH_net.json: per-arm p50/p99/p999/mean/max latency and
// achieved qps, plus fleet-wide admission peaks and batch counters in
// meta (schema: docs/BENCH_SCHEMA.md).
//
// Usage: bench_net [scale] [queries_per_arm] [clients]
#include "bench_util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "index/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

using namespace koko;

namespace {

constexpr size_t kIndexShards = 3;

struct ServedClass {
  replay::Workload workload;
  std::unique_ptr<ShardedKokoIndex> index;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<net::KokoServer> server;
  std::vector<uint64_t> expected_digests;
};

std::unique_ptr<ShardedKokoIndex> BuildMappedIndex(
    const AnnotatedCorpus& corpus, const std::string& name) {
  auto built = ShardedKokoIndex::Build(corpus, kIndexShards);
  const std::string path = "bench_net_" + name + ".idx";
  if (!built->Save(path).ok()) return nullptr;
  ShardedKokoIndex::LoadOptions load;
  load.mode = LoadMode::kMap;
  auto loaded = ShardedKokoIndex::Load(path, load);
  std::remove(path.c_str());
  if (!loaded.ok()) return nullptr;
  return std::move(*loaded);
}

/// One scheduled request: which class/query, and (open loop) when it is
/// due relative to the arm's start.
struct Slot {
  size_t cls = 0;
  size_t query = 0;
  double due_seconds = 0;
};

struct ArmResult {
  std::vector<double> latencies_ms;  // indexed by slot
  std::atomic<size_t> errors{0};
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> rows{0};
  double wall_seconds = 0;
};

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(
      static_cast<double>(sorted.size() - 1) * q + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// Runs one arm: `clients` worker threads, each holding one persistent
/// connection per class server, claim schedule slots off a shared cursor.
/// Open-loop slots carry a due time the worker sleeps until; latency is
/// then measured from the *scheduled* arrival, not the actual send.
void RunArm(const std::vector<std::unique_ptr<ServedClass>>& fleet,
            const std::vector<Slot>& schedule, size_t clients, bool open_loop,
            ArmResult* result) {
  result->latencies_ms.assign(schedule.size(), 0);
  std::atomic<size_t> cursor{0};
  const auto arm_start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  for (size_t w = 0; w < clients; ++w) {
    workers.emplace_back([&]() {
      std::vector<net::KokoClient> conns;
      for (const auto& served : fleet) {
        auto client = net::KokoClient::Connect(served->server->port());
        if (!client.ok()) {
          result->errors.fetch_add(schedule.size());  // poison the run
          return;
        }
        conns.push_back(std::move(*client));
      }
      while (true) {
        const size_t slot_index = cursor.fetch_add(1);
        if (slot_index >= schedule.size()) break;
        const Slot& slot = schedule[slot_index];
        const ServedClass& served = *fleet[slot.cls];
        auto scheduled = arm_start;
        if (open_loop) {
          scheduled += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(slot.due_seconds));
          std::this_thread::sleep_until(scheduled);
        } else {
          scheduled = std::chrono::steady_clock::now();
        }
        net::NetRequest request;
        request.query_text = served.workload.queries[slot.query].text;
        auto wire = conns[slot.cls].Query(request);
        const auto finished = std::chrono::steady_clock::now();
        if (!wire.ok() || !wire->status.ok()) {
          result->errors.fetch_add(1);
          continue;
        }
        result->latencies_ms[slot_index] =
            std::chrono::duration<double, std::milli>(finished - scheduled)
                .count();
        result->rows.fetch_add(wire->rows.size());
        if (replay::RowDigest(wire->rows) !=
            served.expected_digests[slot.query]) {
          result->mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  result->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    arm_start)
          .count();
}

/// Fires every client at class 0 simultaneously (spin barrier), so the
/// admission queue provably sees concurrent in-flight executions.
/// `allow_batch` false forces distinct admissions (peak_inflight > 1);
/// true lets the coalescer turn the burst into leader + followers.
size_t RunBurst(const ServedClass& served, size_t clients, int rounds,
                bool allow_batch) {
  std::atomic<size_t> ready{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> workers;
  for (size_t w = 0; w < clients; ++w) {
    workers.emplace_back([&]() {
      auto client = net::KokoClient::Connect(served.server->port());
      const bool connected = client.ok();
      if (!connected) failures.fetch_add(1);
      // A failed connection still takes the barrier turns — the other
      // clients must not spin forever waiting for it.
      for (int round = 0; round < rounds; ++round) {
        ready.fetch_add(1);
        while (ready.load() < clients * static_cast<size_t>(round + 1)) {
          std::this_thread::yield();
        }
        if (!connected) continue;
        net::NetRequest request;
        request.query_text = served.workload.queries.front().text;
        request.allow_batch = allow_batch;
        auto wire = client->Query(request);
        if (!wire.ok() || !wire->status.ok() ||
            replay::RowDigest(wire->rows) != served.expected_digests.front()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  return failures.load();
}

void EmitArm(bench::JsonEmitter* emitter, const char* arrival,
             const ArmResult& result, size_t clients, double open_rate_qps) {
  std::vector<double> sorted;
  for (double ms : result.latencies_ms) {
    if (ms > 0) sorted.push_back(ms);
  }
  std::sort(sorted.begin(), sorted.end());
  double sum = 0;
  for (double ms : sorted) sum += ms;
  const double p50 = Percentile(sorted, 0.50);
  const double p99 = Percentile(sorted, 0.99);
  const double p999 = Percentile(sorted, 0.999);
  const double qps = result.wall_seconds > 0
                         ? static_cast<double>(sorted.size()) /
                               result.wall_seconds
                         : 0;
  std::printf(
      "  [%s] q=%zu err=%zu mism=%zu | p50=%.2fms p99=%.2fms p999=%.2fms | "
      "%.1f qps over %.2fs\n",
      arrival, sorted.size(), result.errors.load(), result.mismatches.load(),
      p50, p99, p999, qps, result.wall_seconds);
  emitter->AddEntry(
      arrival, {{"arrival", arrival}},
      {{"queries", static_cast<double>(sorted.size())},
       {"clients", static_cast<double>(clients)},
       {"errors", static_cast<double>(result.errors.load())},
       {"digest_mismatches", static_cast<double>(result.mismatches.load())},
       {"rows", static_cast<double>(result.rows.load())},
       {"p50_ms", p50},
       {"p99_ms", p99},
       {"p999_ms", p999},
       {"mean_ms", sorted.empty() ? 0 : sum / static_cast<double>(sorted.size())},
       {"max_ms", sorted.empty() ? 0 : sorted.back()},
       {"qps", qps},
       {"open_rate_qps", open_rate_qps},
       {"wall_seconds", result.wall_seconds}});
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 1;
  const size_t queries =
      argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 96;
  const size_t clients =
      argc > 3 ? static_cast<size_t>(std::atoi(argv[3])) : 4;
  const double open_rate_qps = 100.0;
  std::printf(
      "Network serving bench: scale=%d, %zu queries/arm, %zu clients\n\n",
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

  std::vector<std::unique_ptr<ServedClass>> fleet;
  for (replay::Workload& workload : *workloads) {
    auto served_ptr = std::make_unique<ServedClass>();
    ServedClass& served = *served_ptr;
    served.workload = std::move(workload);
    served.index = BuildMappedIndex(served.workload.corpus,
                                    served.workload.name);
    if (served.index == nullptr) {
      std::fprintf(stderr, "index build failed for %s\n",
                   served.workload.name.c_str());
      return 1;
    }
    served.engine = std::make_unique<Engine>(&served.workload.corpus,
                                             served.index.get(), &embeddings,
                                             &const_pipeline.recognizer());
    EngineOptions reference;
    reference.use_planner = false;
    reference.early_terminate = false;
    for (const replay::WorkloadQuery& query : served.workload.queries) {
      auto result = served.engine->Execute(query.query, reference);
      if (!result.ok()) {
        std::fprintf(stderr, "reference run failed (%s/%s): %s\n",
                     served.workload.name.c_str(), query.name.c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      served.expected_digests.push_back(replay::RowDigest(*result));
    }
    QueryService::Options service_options;
    service_options.max_inflight = clients;
    served.service = std::make_unique<QueryService>(
        served.engine.get(), service_options, kIndexShards);
    served.server = std::make_unique<net::KokoServer>(served.service.get(),
                                                      net::KokoServer::Options());
    const Status started = served.server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed for %s: %s\n",
                   served.workload.name.c_str(), started.ToString().c_str());
      return 1;
    }
    std::printf("serving %-16s on port %u (%zu queries, mapped=%d)\n",
                served.workload.name.c_str(), served.server->port(),
                served.workload.queries.size(),
                served.index->mapped() ? 1 : 0);
    fleet.push_back(std::move(served_ptr));
  }
  std::printf("\n");

  // One seeded mixed-class schedule per arm (deterministic: which server
  // and query each slot hits, and the open-loop Poisson arrival times).
  std::mt19937_64 rng(1);
  std::exponential_distribution<double> gap(open_rate_qps);
  std::vector<Slot> schedule(queries);
  double due = 0;
  for (Slot& slot : schedule) {
    slot.cls = rng() % fleet.size();
    slot.query = rng() % fleet[slot.cls]->workload.queries.size();
    due += gap(rng);
    slot.due_seconds = due;
  }

  bench::JsonEmitter emitter("net");
  emitter.SetMeta("scale", static_cast<double>(scale));
  emitter.SetMeta("queries_per_arm", static_cast<double>(queries));
  emitter.SetMeta("clients", static_cast<double>(clients));
  emitter.SetMeta("workload_classes", static_cast<double>(fleet.size()));
  emitter.SetMeta("index_shards", static_cast<double>(kIndexShards));

  size_t failures = 0;

  ArmResult closed;
  RunArm(fleet, schedule, clients, /*open_loop=*/false, &closed);
  EmitArm(&emitter, "closed", closed, clients, 0);
  failures += closed.errors.load() + closed.mismatches.load();

  ArmResult open;
  RunArm(fleet, schedule, clients, /*open_loop=*/true, &open);
  EmitArm(&emitter, "open", open, clients, open_rate_qps);
  failures += open.errors.load() + open.mismatches.load();

  // Burst phases against class 0: unbatchable (forces concurrent
  // admissions — the peak_inflight > 1 proof) then batchable (drives the
  // coalescer's leader/follower path over the wire).
  failures += RunBurst(*fleet.front(), clients, /*rounds=*/3,
                       /*allow_batch=*/false);
  failures += RunBurst(*fleet.front(), clients, /*rounds=*/3,
                       /*allow_batch=*/true);

  uint64_t peak_inflight = 0;
  uint64_t peak_waiting = 0;
  uint64_t admission_rejected = 0;
  uint64_t batch_leaders = 0;
  uint64_t batch_followers = 0;
  uint64_t batch_peak_group = 0;
  uint64_t wire_requests = 0;
  uint64_t wire_protocol_errors = 0;
  for (const auto& served : fleet) {
    const QueryService::Stats service_stats = served->service->stats();
    peak_inflight = std::max(peak_inflight, service_stats.peak_inflight);
    peak_waiting = std::max(peak_waiting, service_stats.peak_waiting);
    admission_rejected += service_stats.rejected;
    const net::KokoServer::Stats server_stats = served->server->stats();
    batch_leaders += server_stats.batch.leaders;
    batch_followers += server_stats.batch.followers;
    batch_peak_group = std::max(batch_peak_group,
                                server_stats.batch.peak_group);
    wire_requests += server_stats.requests;
    wire_protocol_errors += server_stats.protocol_errors;
  }
  emitter.SetMeta("peak_inflight", static_cast<double>(peak_inflight));
  emitter.SetMeta("peak_waiting", static_cast<double>(peak_waiting));
  emitter.SetMeta("admission_rejected",
                  static_cast<double>(admission_rejected));
  emitter.SetMeta("batch_leaders", static_cast<double>(batch_leaders));
  emitter.SetMeta("batch_followers", static_cast<double>(batch_followers));
  emitter.SetMeta("batch_peak_group", static_cast<double>(batch_peak_group));
  emitter.SetMeta("wire_requests", static_cast<double>(wire_requests));
  emitter.SetMeta("wire_protocol_errors",
                  static_cast<double>(wire_protocol_errors));

  std::printf(
      "\nfleet: peak_inflight=%llu peak_waiting=%llu batch=%llu+%llu "
      "(peak group %llu) requests=%llu\n",
      static_cast<unsigned long long>(peak_inflight),
      static_cast<unsigned long long>(peak_waiting),
      static_cast<unsigned long long>(batch_leaders),
      static_cast<unsigned long long>(batch_followers),
      static_cast<unsigned long long>(batch_peak_group),
      static_cast<unsigned long long>(wire_requests));

  for (auto& served : fleet) served->server->Stop();

  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed writing BENCH_net.json\n");
    return 1;
  }
  if (clients > 1 && peak_inflight <= 1) {
    std::fprintf(stderr,
                 "FAIL: peak_inflight=%llu with %zu clients — the wire "
                 "front end never achieved concurrent admissions\n",
                 static_cast<unsigned long long>(peak_inflight), clients);
    return 1;
  }
  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %zu errors/mismatches under wire traffic\n",
                 failures);
    return 1;
  }
  std::printf("OK: all wire responses matched the reference digests\n");
  return 0;
}
