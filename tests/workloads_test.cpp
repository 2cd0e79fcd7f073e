// Golden-row parity net over the paper-figure workloads (src/replay).
//
// For every workload class a small-corpus golden result set — digest and
// row count per query, recorded from the seed-semantics path (one-shard
// index, planner off, no early termination, one thread) — lives in
// tests/golden/workloads.golden. Every test then asserts the live engine
// reproduces those rows byte-identically across the configuration
// cross-product: index variant (one shard, K shards built, K shards
// save/load kCopy, K shards save/load kMap with the file unlinked while
// mapped) x execution options (planner on/off, max_rows with streaming
// early termination) x concurrent QueryService clients.
//
// Regenerating the golden file (only when row semantics intentionally
// change): KOKO_REGEN_GOLDEN=1 ./workloads_test

#include "replay/workloads.h"

#include <gtest/gtest.h>

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
#include "serve/query_service.h"

#ifndef KOKO_GOLDEN_DIR
#error "KOKO_GOLDEN_DIR must be defined (see koko_add_test in CMakeLists.txt)"
#endif

namespace koko {
namespace {

constexpr size_t kIndexShards = 3;
constexpr size_t kQueriesPerClass = 3;

std::string GoldenPath() {
  return std::string(KOKO_GOLDEN_DIR) + "/workloads.golden";
}

struct GoldenEntry {
  std::string digest_hex;
  size_t rows = 0;
};

// All four index variants a deployment can serve from. Parity across them
// is the point: build/save/load/mmap must never change a row.
struct IndexVariants {
  std::unique_ptr<ShardedKokoIndex> one;
  std::unique_ptr<ShardedKokoIndex> sharded_built;
  std::unique_ptr<ShardedKokoIndex> sharded_copy;
  std::unique_ptr<ShardedKokoIndex> sharded_map;
};

constexpr size_t kTopK = 7;

struct ReferenceResult {
  std::string key;  // "<class>/<query_name>"
  QueryResult result;
  uint64_t digest = 0;
  /// Digest of the evaluate-then-truncate baseline at max_rows=kTopK.
  /// The row cap applies to extracted rows *before* the satisfying filter
  /// (both execution modes cut the same pending stream), so a capped run
  /// is not in general a prefix of the uncapped final rows — the parity
  /// contract for early termination is against this capped baseline.
  uint64_t capped_digest = 0;
};

struct World {
  Pipeline pipeline;
  EmbeddingModel embeddings;
  std::vector<replay::Workload> workloads;
  std::vector<IndexVariants> variants;                // per workload
  std::vector<std::vector<ReferenceResult>> reference;  // per workload/query

  const EntityRecognizer* recognizer() const {
    return &pipeline.recognizer();
  }
};

// Seed-semantics reference configuration: the execution path whose rows
// the golden file records.
EngineOptions ReferenceOptions() {
  EngineOptions options;
  options.use_planner = false;
  options.early_terminate = false;
  return options;
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
    w->workloads = std::move(*workloads);
    for (const replay::Workload& workload : w->workloads) {
      IndexVariants v;
      v.one = ShardedKokoIndex::Build(workload.corpus, 1);
      v.sharded_built = ShardedKokoIndex::Build(workload.corpus, kIndexShards);
      const std::string path = "workloads_test_" + workload.name + ".idx";
      if (!v.sharded_built->Save(path).ok()) std::abort();
      ShardedKokoIndex::LoadOptions copy_load;
      copy_load.mode = LoadMode::kCopy;
      auto copied = ShardedKokoIndex::Load(path, copy_load);
      ShardedKokoIndex::LoadOptions map_load;
      map_load.mode = LoadMode::kMap;
      auto mapped = ShardedKokoIndex::Load(path, map_load);
      // Unlink while mapped: the serving lifetime contract.
      std::remove(path.c_str());
      if (!copied.ok() || !mapped.ok()) std::abort();
      v.sharded_copy = std::move(*copied);
      v.sharded_map = std::move(*mapped);

      Engine engine(&workload.corpus, v.one.get(), &w->embeddings,
                    w->recognizer());
      std::vector<ReferenceResult> refs;
      for (const replay::WorkloadQuery& query : workload.queries) {
        auto result = engine.Execute(query.query, ReferenceOptions());
        if (!result.ok()) {
          std::fprintf(stderr, "reference run failed (%s/%s): %s\n",
                       workload.name.c_str(), query.name.c_str(),
                       result.status().ToString().c_str());
          std::abort();
        }
        ReferenceResult ref;
        ref.key = workload.name + "/" + query.name;
        ref.result = std::move(*result);
        ref.digest = replay::RowDigest(ref.result);
        EngineOptions capped = ReferenceOptions();
        capped.max_rows = kTopK;
        auto capped_result = engine.Execute(query.query, capped);
        if (!capped_result.ok()) std::abort();
        ref.capped_digest = replay::RowDigest(*capped_result);
        refs.push_back(std::move(ref));
      }
      w->variants.push_back(std::move(v));
      w->reference.push_back(std::move(refs));
    }
    return w;
  }();
  return *world;
}

std::map<std::string, GoldenEntry> ReadGolden() {
  std::map<std::string, GoldenEntry> golden;
  std::ifstream in(GoldenPath());
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    GoldenEntry entry;
    fields >> key >> entry.digest_hex >> entry.rows;
    if (!key.empty()) golden[key] = entry;
  }
  return golden;
}

// The golden file is the recorded seed semantics; everything else in this
// suite derives its expectation from the in-memory reference, so this is
// the one place where a semantic drift of the reference path itself —
// generator, annotation pipeline, engine — gets caught.
TEST(WorkloadGoldenTest, ReferenceMatchesGoldenFile) {
  const World& world = GetWorld();
  if (std::getenv("KOKO_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath());
    out << "# Golden row digests for the paper-figure workloads.\n"
        << "# <class>/<query> <row-digest-hex> <row-count>\n"
        << "# Recorded from the seed-semantics path (monolithic index,\n"
        << "# planner off, early termination off, one thread) at scale 1,\n"
        << "# " << kQueriesPerClass << " queries per class, seed 0.\n"
        << "# Regenerate: KOKO_REGEN_GOLDEN=1 ./workloads_test\n";
    for (const auto& refs : world.reference) {
      for (const ReferenceResult& ref : refs) {
        out << ref.key << " " << replay::DigestHex(ref.digest) << " "
            << ref.result.rows.size() << "\n";
      }
    }
    ASSERT_TRUE(out.good()) << "failed writing " << GoldenPath();
    GTEST_SKIP() << "regenerated " << GoldenPath();
  }

  const std::map<std::string, GoldenEntry> golden = ReadGolden();
  ASSERT_FALSE(golden.empty())
      << GoldenPath()
      << " missing or empty; regenerate with KOKO_REGEN_GOLDEN=1";
  size_t checked = 0;
  for (const auto& refs : world.reference) {
    for (const ReferenceResult& ref : refs) {
      auto it = golden.find(ref.key);
      ASSERT_NE(it, golden.end()) << "no golden entry for " << ref.key;
      EXPECT_EQ(replay::DigestHex(ref.digest), it->second.digest_hex)
          << ref.key << " rows diverged from recorded seed semantics";
      EXPECT_EQ(ref.result.rows.size(), it->second.rows) << ref.key;
      ++checked;
    }
  }
  // Stale golden entries (removed/renamed queries) must not linger.
  EXPECT_EQ(golden.size(), checked)
      << "golden file has entries no workload produces; regenerate";
}

// One execution-option arm of the cross-product.
struct OptionArm {
  const char* name;
  bool use_planner;
  size_t max_rows;  // 0 = unlimited
};

const OptionArm kOptionArms[] = {
    {"planner_off", false, 0},
    {"planner_on", true, 0},
    {"planner_on_topk", true, kTopK},
};

EngineOptions ArmOptions(const OptionArm& arm) {
  EngineOptions options;
  options.use_planner = arm.use_planner;
  if (arm.max_rows != 0) {
    options.max_rows = arm.max_rows;
    options.early_terminate = true;
  } else {
    options.early_terminate = false;
  }
  return options;
}

// Uncapped arms match the full reference; the capped arm matches the
// evaluate-then-truncate baseline at the same max_rows (early termination
// must cut the identical pending-row stream at the identical point).
uint64_t ExpectedDigest(const ReferenceResult& ref, size_t max_rows) {
  return max_rows == 0 ? ref.digest : ref.capped_digest;
}

void CheckEngineArm(const World& world, size_t wi, Engine& engine,
                    const std::string& context) {
  const replay::Workload& workload = world.workloads[wi];
  for (const OptionArm& arm : kOptionArms) {
    const EngineOptions options = ArmOptions(arm);
    for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
      const ReferenceResult& ref = world.reference[wi][qi];
      auto result = engine.Execute(workload.queries[qi].query, options);
      ASSERT_TRUE(result.ok())
          << context << "/" << arm.name << " " << ref.key << ": "
          << result.status().ToString();
      EXPECT_EQ(replay::RowDigest(*result), ExpectedDigest(ref, arm.max_rows))
          << context << "/" << arm.name << " " << ref.key
          << " rows diverged from reference";
      if (arm.max_rows != 0) {
        EXPECT_LE(result->rows.size(), arm.max_rows)
            << context << "/" << arm.name << " " << ref.key;
      }
    }
  }
}

// The tentpole cross-product: every index variant x every option arm x
// every workload query must reproduce the reference rows byte for byte.
TEST(WorkloadParityTest, CrossProductMatchesReference) {
  const World& world = GetWorld();
  for (size_t wi = 0; wi < world.workloads.size(); ++wi) {
    const replay::Workload& workload = world.workloads[wi];
    const IndexVariants& v = world.variants[wi];
    ASSERT_TRUE(v.sharded_map->mapped());
    {
      Engine engine(&workload.corpus, v.one.get(), &world.embeddings,
                    world.recognizer());
      CheckEngineArm(world, wi, engine, workload.name + "/sharded1");
    }
    {
      Engine engine(&workload.corpus, v.sharded_built.get(), &world.embeddings,
                    world.recognizer());
      CheckEngineArm(world, wi, engine, workload.name + "/sharded_built");
    }
    {
      Engine engine(&workload.corpus, v.sharded_copy.get(), &world.embeddings,
                    world.recognizer());
      CheckEngineArm(world, wi, engine, workload.name + "/load_copy");
    }
    {
      Engine engine(&workload.corpus, v.sharded_map.get(), &world.embeddings,
                    world.recognizer());
      CheckEngineArm(world, wi, engine, workload.name + "/load_map");
    }
  }
}

// Serving arm: concurrent clients through one QueryService (shared score
// and plan caches, admission control) over the mapped image. Two rounds
// per client so the second runs against warm caches — cached and uncached
// paths must be row-identical.
TEST(WorkloadParityTest, ConcurrentServiceClientsMatchReference) {
  const World& world = GetWorld();
  for (size_t wi = 0; wi < world.workloads.size(); ++wi) {
    const replay::Workload& workload = world.workloads[wi];
    Engine engine(&workload.corpus, world.variants[wi].sharded_map.get(),
                  &world.embeddings, world.recognizer());
    QueryService::Options service_options;
    service_options.num_threads = 3;
    service_options.max_inflight = 3;
    QueryService service(&engine, service_options, kIndexShards);

    constexpr int kClients = 3;
    std::vector<size_t> mismatches(kClients, 0);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        for (int round = 0; round < 2; ++round) {
          for (size_t qi = 0; qi < workload.queries.size(); ++qi) {
            auto result = service.Run(workload.queries[qi].query);
            if (!result.ok() ||
                replay::RowDigest(*result) != world.reference[wi][qi].digest) {
              ++mismatches[static_cast<size_t>(c)];
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(mismatches[static_cast<size_t>(c)], 0u)
          << workload.name << " client " << c;
    }
    const QueryService::Stats stats = service.stats();
    EXPECT_EQ(stats.completed,
              static_cast<uint64_t>(kClients * 2) * workload.queries.size());
  }
}

}  // namespace
}  // namespace koko
