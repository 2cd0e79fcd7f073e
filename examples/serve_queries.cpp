// Concurrent query serving: many client threads share one QueryService over
// one sharded index. Demonstrates the server-core pieces added for
// heavy-traffic serving:
//
//   * admission queue (max_inflight / max_queue back-pressure),
//   * one query, one thread: each `Run` executes on its client's thread,
//     so concurrency comes from the clients, not from splitting a query,
//   * the persistent score cache warming across repeated queries,
//   * serving off a zero-copy (mmap) index load — the production startup
//     path: workers map the shipped image instead of deserializing it.
//
// Build: cmake --build build --target serve_queries && ./build/serve_queries
// Pass "copy" as argv[1] to serve off a copy-loaded index instead.

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "corpus/generators.h"
#include "index/sharded_index.h"
#include "nlp/pipeline.h"
#include "serve/query_service.h"

using namespace koko;

int main(int argc, char** argv) {
  const LoadMode mode = argc > 1 && std::strcmp(argv[1], "copy") == 0
                            ? LoadMode::kCopy
                            : LoadMode::kMap;
  // Corpus + sharded index: built once, persisted, then served from the
  // on-disk image the way a production worker would receive it.
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 400, .seed = 11});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  const std::string image = "serve_queries_index.bin";
  {
    auto built = ShardedKokoIndex::Build(corpus, /*num_shards=*/4);
    if (!built->Save(image).ok()) {
      std::printf("index save failed\n");
      return 1;
    }
  }
  ShardedKokoIndex::LoadOptions load_options;
  load_options.mode = mode;
  auto loaded = ShardedKokoIndex::Load(image, load_options);
  if (!loaded.ok()) {
    std::printf("index load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  ShardedKokoIndex* index = loaded->get();
  std::printf("serving a %s-loaded index (mapped=%d, resident posting "
              "bytes=%zu)\n",
              mode == LoadMode::kMap ? "mmap" : "copy",
              index->mapped() ? 1 : 0, index->SidCacheMemoryUsage());
  EmbeddingModel embeddings;
  Engine engine(&corpus, index, &embeddings,
                &const_cast<const Pipeline&>(pipeline).recognizer());

  // The service owns the persistent score and plan caches. At most 4
  // queries execute at once; the 9th waiting client would be rejected with
  // Unavailable instead of piling up. Each query runs on the thread of the
  // client that calls Run; the service starts no thread of its own.
  QueryService::Options options;
  options.max_inflight = 4;
  options.max_queue = 8;
  QueryService service(&engine, options, index->num_shards());

  const std::vector<std::string> workload = {
      R"(extract b:Str from "t" if ( /ROOT:{ a = //verb, b = a/dobj }))",
      R"(extract e:Entity from "t" if ()
         satisfying e (e near "happy" {1}) with threshold 0.1)",
  };

  // Eight clients, two rounds each: round two runs against warm caches.
  std::vector<std::thread> clients;
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&service, &workload, c] {
      for (int round = 0; round < 2; ++round) {
        for (const std::string& query : workload) {
          auto result = service.Run(query);
          if (!result.ok()) {
            std::printf("client %d: %s\n", c,
                        result.status().ToString().c_str());
            continue;
          }
          std::printf("client %d round %d: %zu rows in %.1f ms\n", c, round,
                      result->rows.size(), result->phases.Total() * 1e3);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  QueryService::Stats stats = service.stats();
  ScoreCache::Stats cache = service.score_cache().stats();
  std::printf(
      "\nserved %llu queries (peak inflight %llu, peak waiting %llu, "
      "rejected %llu)\nscore cache: %llu hits / %llu misses, %llu entries\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.peak_inflight),
      static_cast<unsigned long long>(stats.peak_waiting),
      static_cast<unsigned long long>(stats.rejected),
      static_cast<unsigned long long>(cache.hits),
      static_cast<unsigned long long>(cache.misses),
      static_cast<unsigned long long>(cache.entries));
  std::remove(image.c_str());
  return 0;
}
