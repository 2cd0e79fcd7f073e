// Wire-level golden-row parity net: concurrent client sockets replay the
// paper-figure workload queries (src/replay) against a live KokoServer and
// must reproduce the pinned golden digests of tests/golden/workloads.golden
// byte for byte — the serving front end may add framing, batching, and
// admission control, but never a row's worth of semantics. Covered arms:
// batching on/off, max_rows-capped, streaming, parse errors and malformed
// frames over the wire, admission rejection over the wire, shutdown
// while clients are mid-stream, and the traffic replayer's two transports.
//
// The in-process counterpart of this contract is
// tests/workloads_test.cpp; the golden file is shared (regenerate it
// there, never here).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "index/sharded_index.h"
#include "net/client.h"
#include "net/server.h"
#include "replay/traffic.h"
#include "replay/workloads.h"
#include "serve/query_service.h"

#ifndef KOKO_GOLDEN_DIR
#error "KOKO_GOLDEN_DIR must be defined (see koko_add_test in CMakeLists.txt)"
#endif

namespace koko {
namespace net {
namespace {

constexpr size_t kIndexShards = 3;
constexpr size_t kQueriesPerClass = 3;  // must match workloads_test
constexpr size_t kTopK = 7;

struct ServedWorkload {
  replay::Workload workload;
  std::unique_ptr<ShardedKokoIndex> index;
  std::unique_ptr<Engine> engine;
  /// Golden (uncapped, seed-semantics) digest per query.
  std::vector<uint64_t> golden_digests;
  std::vector<size_t> golden_rows;
  /// Evaluate-then-truncate reference digest at max_rows=kTopK per query
  /// (the capped-run parity baseline; see workloads_test).
  std::vector<uint64_t> capped_digests;
};

struct World {
  Pipeline pipeline;
  EmbeddingModel embeddings;
  /// Heap-allocated: each engine borrows pointers into its own entry
  /// (corpus, index), so entry addresses must survive vector growth.
  std::vector<std::unique_ptr<ServedWorkload>> served;
};

std::map<std::string, uint64_t> ReadGoldenDigests() {
  std::map<std::string, uint64_t> golden;
  std::ifstream in(std::string(KOKO_GOLDEN_DIR) + "/workloads.golden");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, digest_hex;
    size_t rows = 0;
    fields >> key >> digest_hex >> rows;
    if (key.empty()) continue;
    golden[key] = std::stoull(digest_hex, nullptr, 16);
    golden[key + "#rows"] = rows;
  }
  return golden;
}

// The serving configuration under test: sharded build -> save -> zero-copy
// mmap reload -> unlink while mapped.
std::unique_ptr<ShardedKokoIndex> BuildMappedIndex(
    const AnnotatedCorpus& corpus, const std::string& name) {
  auto built = ShardedKokoIndex::Build(corpus, kIndexShards);
  const std::string path = "net_serve_test_" + name + ".idx";
  if (!built->Save(path).ok()) std::abort();
  ShardedKokoIndex::LoadOptions load;
  load.mode = LoadMode::kMap;
  auto loaded = ShardedKokoIndex::Load(path, load);
  std::remove(path.c_str());
  if (!loaded.ok()) std::abort();
  return std::move(*loaded);
}

const World& GetWorld() {
  static World* world = [] {
    auto* w = new World();
    replay::WorkloadOptions options;
    options.scale = 1;
    options.queries_per_class = kQueriesPerClass;
    auto workloads = replay::BuildAllWorkloads(w->pipeline, options);
    if (!workloads.ok()) {
      std::fprintf(stderr, "workload build failed: %s\n",
                   workloads.status().ToString().c_str());
      std::abort();
    }
    const std::map<std::string, uint64_t> golden = ReadGoldenDigests();
    if (golden.empty()) {
      std::fprintf(stderr,
                   "golden file missing/empty; regenerate via "
                   "KOKO_REGEN_GOLDEN=1 ./workloads_test\n");
      std::abort();
    }
    for (replay::Workload& workload : *workloads) {
      auto served_ptr = std::make_unique<ServedWorkload>();
      ServedWorkload& served = *served_ptr;
      served.index = BuildMappedIndex(workload.corpus, workload.name);
      served.workload = std::move(workload);
      served.engine = std::make_unique<Engine>(
          &served.workload.corpus, served.index.get(), &w->embeddings,
          w->pipeline.recognizer());
      for (const replay::WorkloadQuery& query : served.workload.queries) {
        const std::string key = served.workload.name + "/" + query.name;
        auto it = golden.find(key);
        if (it == golden.end()) {
          std::fprintf(stderr, "no golden entry for %s\n", key.c_str());
          std::abort();
        }
        served.golden_digests.push_back(it->second);
        served.golden_rows.push_back(golden.at(key + "#rows"));
        // Capped baseline: seed semantics with the row cap, computed from
        // the same mapped index (variant parity is workloads_test's job).
        EngineOptions capped;
        capped.use_planner = false;
        capped.early_terminate = false;
        capped.max_rows = kTopK;
        auto result = served.engine->Execute(query.query, capped);
        if (!result.ok()) std::abort();
        served.capped_digests.push_back(replay::RowDigest(*result));
      }
      w->served.push_back(std::move(served_ptr));
    }
    return w;
  }();
  return *world;
}

// One server over one workload's service, torn down in order.
struct Harness {
  std::unique_ptr<QueryService> service;
  std::unique_ptr<KokoServer> server;

  explicit Harness(const ServedWorkload& served, size_t max_inflight = 3,
                   size_t max_queue = 16) {
    QueryService::Options service_options;
    service_options.max_inflight = max_inflight;
    service_options.max_queue = max_queue;
    service = std::make_unique<QueryService>(served.engine.get(),
                                             service_options, kIndexShards);
    server = std::make_unique<KokoServer>(service.get(), KokoServer::Options());
    const Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      std::abort();
    }
  }

  ~Harness() { server->Stop(); }
};

NetRequest RequestFor(const replay::WorkloadQuery& query,
                      bool allow_batch = true) {
  NetRequest request;
  request.query_text = query.text;
  request.allow_batch = allow_batch;
  return request;
}

// The tentpole parity sweep: every workload class, batching on and off,
// three concurrent client connections replaying every query twice (second
// round hits warm caches). Every served response must digest to the
// pinned golden value.
TEST(NetServeTest, ConcurrentClientsMatchGoldenWithBatchingOnAndOff) {
  const World& world = GetWorld();
  for (const std::unique_ptr<ServedWorkload>& served_ptr : world.served) {
    const ServedWorkload& served = *served_ptr;
    for (bool batching : {true, false}) {
      Harness harness(served);
      constexpr int kClients = 3;
      std::vector<std::string> failures(kClients);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c]() {
          auto client = KokoClient::Connect(harness.server->port());
          if (!client.ok()) {
            failures[static_cast<size_t>(c)] = client.status().ToString();
            return;
          }
          for (int round = 0; round < 2; ++round) {
            for (size_t qi = 0; qi < served.workload.queries.size(); ++qi) {
              auto wire = client->Query(
                  RequestFor(served.workload.queries[qi], batching));
              if (!wire.ok() || !wire->status.ok()) {
                failures[static_cast<size_t>(c)] =
                    served.workload.queries[qi].name + ": " +
                    (wire.ok() ? wire->status : wire.status()).ToString();
                return;
              }
              if (replay::RowDigest(wire->rows) != served.golden_digests[qi] ||
                  wire->rows.size() != served.golden_rows[qi] ||
                  wire->done.rows != wire->rows.size()) {
                failures[static_cast<size_t>(c)] =
                    served.workload.queries[qi].name +
                    ": wire rows diverged from golden";
                return;
              }
            }
          }
        });
      }
      for (std::thread& t : clients) t.join();
      for (int c = 0; c < kClients; ++c) {
        EXPECT_TRUE(failures[static_cast<size_t>(c)].empty())
            << served.workload.name << " batching=" << batching << " client "
            << c << ": " << failures[static_cast<size_t>(c)];
      }
      // The client observes its kDone a moment before the server thread
      // bumps responses_ok_; give the counters a bounded moment to
      // quiesce before asserting exact totals.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      KokoServer::Stats stats = harness.server->stats();
      while (stats.responses_ok != stats.requests &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
        stats = harness.server->stats();
      }
      EXPECT_EQ(stats.connections_accepted, static_cast<uint64_t>(kClients))
          << served.workload.name;
      EXPECT_EQ(stats.requests,
                static_cast<uint64_t>(kClients * 2) *
                    served.workload.queries.size());
      EXPECT_EQ(stats.responses_ok, stats.requests);
      EXPECT_EQ(stats.protocol_errors, 0u);
      if (!batching) {
        EXPECT_EQ(stats.batch.leaders + stats.batch.followers, 0u)
            << served.workload.name << ": batching off must not coalesce";
      }
    }
  }
}

// Capped and streaming arms over the wire: max_rows must reproduce the
// evaluate-then-truncate baseline (not a prefix of the uncapped rows —
// the PR 9 contract), and streaming must deliver the identical rows as
// chunked frames.
TEST(NetServeTest, CappedAndStreamingArmsMatchReference) {
  const World& world = GetWorld();
  for (const std::unique_ptr<ServedWorkload>& served_ptr : world.served) {
    const ServedWorkload& served = *served_ptr;
    Harness harness(served);
    auto client = KokoClient::Connect(harness.server->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t qi = 0; qi < served.workload.queries.size(); ++qi) {
      const replay::WorkloadQuery& query = served.workload.queries[qi];
      for (bool streaming : {false, true}) {
        NetRequest capped = RequestFor(query);
        capped.max_rows = kTopK;
        capped.streaming = streaming;
        auto wire = client->Query(capped);
        ASSERT_TRUE(wire.ok()) << query.name << ": " << wire.status().ToString();
        ASSERT_TRUE(wire->status.ok()) << query.name;
        EXPECT_LE(wire->rows.size(), kTopK) << query.name;
        EXPECT_EQ(replay::RowDigest(wire->rows), served.capped_digests[qi])
            << query.name << " streaming=" << streaming
            << ": capped wire rows diverged from truncate baseline";
      }
      NetRequest streaming_uncapped = RequestFor(query);
      streaming_uncapped.streaming = true;
      auto wire = client->Query(streaming_uncapped);
      ASSERT_TRUE(wire.ok()) << query.name;
      ASSERT_TRUE(wire->status.ok()) << query.name;
      EXPECT_EQ(replay::RowDigest(wire->rows), served.golden_digests[qi])
          << query.name << ": streaming wire rows diverged from golden";
      if (!wire->rows.empty()) {
        EXPECT_GE(wire->row_frames, 1u) << query.name;
      }
    }
  }
}

// A syntactically bad query is the request's failure, not the
// connection's: the server answers kError and keeps serving the stream.
TEST(NetServeTest, ParseErrorKeepsConnectionOpen) {
  const World& world = GetWorld();
  const ServedWorkload& served = *world.served.front();
  Harness harness(served);
  auto client = KokoClient::Connect(harness.server->port());
  ASSERT_TRUE(client.ok());
  NetRequest bad;
  bad.query_text = "this is not a koko query at all";
  auto wire = client->Query(bad);
  ASSERT_TRUE(wire.ok()) << "transport must survive a parse error";
  EXPECT_FALSE(wire->status.ok());
  // Same connection, next request: served normally.
  auto good = client->Query(RequestFor(served.workload.queries.front()));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_TRUE(good->status.ok());
  EXPECT_EQ(replay::RowDigest(good->rows), served.golden_digests.front());
}

// A malformed frame (bad magic) is unrecoverable: the server answers with
// one error frame and closes the connection.
TEST(NetServeTest, MalformedFrameClosesConnection) {
  const World& world = GetWorld();
  const ServedWorkload& served = *world.served.front();
  Harness harness(served);
  auto client = KokoClient::Connect(harness.server->port());
  ASSERT_TRUE(client.ok());
  std::vector<uint8_t> garbage(kFrameHeaderSize, 0xAB);
  ASSERT_TRUE(client->SendRaw(garbage).ok());
  auto frame = client->ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->first.type, FrameType::kError);
  // The connection is gone: the next read observes EOF, not a hang.
  EXPECT_FALSE(client->ReadFrame().ok());
  const KokoServer::Stats stats = harness.server->stats();
  EXPECT_GE(stats.protocol_errors, 1u);
}

// Admission rejection crosses the wire as an Unavailable error frame, and
// the connection remains usable once capacity frees up.
TEST(NetServeTest, AdmissionRejectOverTheWire) {
  const World& world = GetWorld();
  const ServedWorkload& served = *world.served.front();
  Harness harness(served, /*max_inflight=*/1, /*max_queue=*/0);
  auto client = KokoClient::Connect(harness.server->port());
  ASSERT_TRUE(client.ok());
  // Occupy the single admission slot in-process; with max_queue=0 the
  // wire request is rejected immediately (deterministic, no timing).
  ASSERT_TRUE(harness.service->admission().Enter());
  auto rejected = client->Query(RequestFor(served.workload.queries.front(),
                                           /*allow_batch=*/false));
  harness.service->admission().Exit();
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status.code(), StatusCode::kUnavailable);
  // Slot released: the same connection now gets real rows.
  auto ok = client->Query(RequestFor(served.workload.queries.front(),
                                     /*allow_batch=*/false));
  ASSERT_TRUE(ok.ok());
  ASSERT_TRUE(ok->status.ok());
  EXPECT_EQ(replay::RowDigest(ok->rows), served.golden_digests.front());
}

// Stopping the server while clients stream must yield, per in-flight
// request, either a complete correct response, a served Unavailable, or a
// clean connection close — never a torn frame, a wrong row, or a hang.
TEST(NetServeTest, ShutdownWhileStreamingIsClean) {
  const World& world = GetWorld();
  const ServedWorkload& served = *world.served.front();
  auto harness =
      std::make_unique<Harness>(served);
  constexpr int kClients = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  std::atomic<int> completed{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      auto client = KokoClient::Connect(harness->server->port());
      if (!client.ok()) return;  // raced the shutdown: clean
      for (int round = 0; round < 200; ++round) {
        NetRequest request =
            RequestFor(served.workload.queries[static_cast<size_t>(round) %
                                               served.workload.queries.size()]);
        request.streaming = true;
        auto wire = client->Query(request);
        if (!wire.ok()) return;  // transport closed by Stop(): clean
        if (!wire->status.ok()) {
          // The only in-band failure shutdown may produce is admission
          // rejection.
          if (wire->status.code() != StatusCode::kUnavailable) {
            failures[static_cast<size_t>(c)] = wire->status.ToString();
          }
          return;
        }
        const size_t qi =
            static_cast<size_t>(round) % served.workload.queries.size();
        if (replay::RowDigest(wire->rows) != served.golden_digests[qi]) {
          failures[static_cast<size_t>(c)] = "rows diverged during shutdown";
          return;
        }
        completed.fetch_add(1);
      }
    });
  }
  // Let the clients get in flight, then pull the plug mid-traffic. The
  // deadline only bounds a pathological stall; normally every client has
  // completed a round within milliseconds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (completed.load() < kClients &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  harness->server->Stop();
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_TRUE(failures[static_cast<size_t>(c)].empty())
        << "client " << c << ": " << failures[static_cast<size_t>(c)];
  }
  // After Stop() the port no longer accepts work.
  auto late = KokoClient::Connect(harness->server->port(), 2);
  if (late.ok()) {
    auto wire = late->Query(RequestFor(served.workload.queries.front()));
    EXPECT_TRUE(!wire.ok() || !wire->status.ok());
  }
}

// One replayer, two transports: the same closed-loop schedule replayed in
// process and then over the wire must match the full-scan reference on
// both, and draw the same queries and rows per class.
TEST(NetServeTest, ReplayInProcessAndOverTheWireAgree) {
  const World& world = GetWorld();
  EngineOptions reference;
  reference.use_index = false;
  std::vector<std::vector<uint64_t>> digests(world.served.size());
  for (size_t c = 0; c < world.served.size(); ++c) {
    const ServedWorkload& served = *world.served[c];
    for (const replay::WorkloadQuery& query : served.workload.queries) {
      auto result = served.engine->Execute(query.query, reference);
      ASSERT_TRUE(result.ok()) << query.name;
      digests[c].push_back(replay::RowDigest(*result));
    }
  }
  replay::TrafficOptions traffic;
  traffic.arrival = replay::ArrivalProcess::kClosed;
  traffic.clients = 2;
  traffic.queries = 24;
  replay::ReplayReport reports[2];
  uint64_t wire_requests = 0;
  for (bool wire : {false, true}) {
    std::vector<std::unique_ptr<Harness>> harnesses;
    std::vector<replay::ReplayTarget> targets;
    for (size_t c = 0; c < world.served.size(); ++c) {
      harnesses.push_back(std::make_unique<Harness>(*world.served[c]));
      targets.push_back({&world.served[c]->workload,
                         harnesses.back()->service.get(),
                         wire ? harnesses.back()->server.get() : nullptr,
                         digests[c]});
    }
    reports[wire] = replay::ReplayTraffic(targets, traffic);
    for (const std::unique_ptr<Harness>& harness : harnesses) {
      wire_requests += harness->server->stats().requests;
    }
  }
  EXPECT_EQ(reports[0].TotalErrors(), 0u);
  EXPECT_EQ(reports[1].TotalErrors(), 0u);
  // Every wire slot crossed a socket, and no in-process slot did.
  EXPECT_EQ(wire_requests, 2 * traffic.queries);
  for (const auto& [in_process, over_wire] :
       {std::pair{&reports[0].cold, &reports[1].cold},
        std::pair{&reports[0].warm, &reports[1].warm}}) {
    ASSERT_EQ(in_process->classes.size(), over_wire->classes.size());
    for (size_t c = 0; c < in_process->classes.size(); ++c) {
      EXPECT_EQ(in_process->classes[c].queries, over_wire->classes[c].queries)
          << in_process->phase << " " << in_process->classes[c].name;
      EXPECT_EQ(in_process->classes[c].rows, over_wire->classes[c].rows)
          << in_process->phase << " " << in_process->classes[c].name;
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace koko
