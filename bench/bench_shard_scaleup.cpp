// Shard scale-up: the Table 2 story past one core. Fixed corpus, growing
// shard count K — measures (a) ShardedKokoIndex build time (shards build in
// parallel on transient threads: speedup should approach min(K, cores); the
// acceptance bar is > 1.5x at K=4 on the 4000-article corpus on multi-core
// hardware), (b) per-phase query time over K shards — a query runs on one
// thread, DPLI visiting the K shards in order, so this shows what sharding
// costs or saves a single query — and (c) index load time —
// serial vs shard-parallel loads from the manifest's byte extents, owned
// buffer (LoadMode::kCopy) vs mmap (LoadMode::kMap), with each loaded
// index's resident posting bytes.
//
// argv[1] optionally overrides the article count (default 4000) for quick
// local runs. Emits BENCH_shard_scaleup.json.
#include "bench_util.h"

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "index/sharded_index.h"
#include "storage/doc_store.h"
#include "util/timer.h"

using namespace koko;

namespace {

// Two of the §6.3 example queries (see bench_table2_scaleup): one
// path-selective, one span-heavy.
const char* kChocolateQuery = R"(
extract c:Entity from wiki.article if (
  /ROOT:{
    v = //verb,
    o = v//pobj[text="chocolate"],
    s = v/nsubj
  } (s) in (c))
satisfying v
  (v SimilarTo "is" {1})
with threshold 0.9
)";

const char* kTitleQuery = R"(
extract a:Person, b:Str from wiki.article if (
  /ROOT:{
    v = //"called",
    p = v/propn,
    b = p.subtree,
    c = a + ^ + v + ^ + b
  })
)";

// Save the index, then time the load sweep: serial copy, shard-parallel
// copy, and shard-parallel zero-copy mmap. Each variant's entry carries a
// `load_mode` tag and the loaded index's resident posting bytes (heap
// attributable to the sid caches — ~0 for kMap, whose postings alias the
// page-cache-backed mapping). Returns false on any persistence
// failure so main can fail the (CI) run.
bool TimeLoad(const ShardedKokoIndex& index, size_t k,
              bench::JsonEmitter* emitter) {
  const std::string path = "bench_shard_scaleup_index.bin";
  if (!index.Save(path).ok()) {
    std::printf("  save FAILED at K=%zu\n", k);
    return false;
  }
  struct Variant {
    const char* name;       // entry suffix
    const char* load_mode;  // "copy" | "map"
    size_t num_threads;     // 0 = one worker per shard
    LoadMode mode;
  };
  const Variant variants[] = {
      {"copy-serial", "copy", 1, LoadMode::kCopy},
      {"copy-parallel", "copy", 0, LoadMode::kCopy},
      {"map-parallel", "map", 0, LoadMode::kMap},
  };
  double seconds[3] = {0, 0, 0};
  size_t resident[3] = {0, 0, 0};
  size_t index_bytes[3] = {0, 0, 0};
  bool ok = true;
  for (size_t v = 0; v < 3; ++v) {
    ShardedKokoIndex::LoadOptions options;
    options.num_threads = variants[v].num_threads;
    options.mode = variants[v].mode;
    WallTimer timer;
    auto loaded = ShardedKokoIndex::Load(path, options);
    seconds[v] = timer.ElapsedSeconds();
    if (!loaded.ok()) {
      std::printf("  load (%s) FAILED at K=%zu: %s\n", variants[v].name, k,
                  loaded.status().ToString().c_str());
      ok = false;
      continue;
    }
    resident[v] = (*loaded)->SidCacheMemoryUsage();
    index_bytes[v] = (*loaded)->MemoryUsage();
    if (variants[v].mode == LoadMode::kMap && !(*loaded)->mapped()) {
      std::printf("  load (%s) did not map at K=%zu\n", variants[v].name, k);
      ok = false;
    }
    emitter->AddEntry(
        "load/K=" + std::to_string(k) + "/" + variants[v].name,
        {{"load_mode", variants[v].load_mode}},
        {{"shards", static_cast<double>(k)},
         {"load_s", seconds[v]},
         {"resident_posting_bytes", static_cast<double>(resident[v])},
         {"resident_index_bytes", static_cast<double>(index_bytes[v])}});
  }
  std::remove(path.c_str());
  if (!ok) return false;
  const double parallel_speedup = seconds[1] > 0 ? seconds[0] / seconds[1] : 0;
  const double map_speedup = seconds[2] > 0 ? seconds[1] / seconds[2] : 0;
  std::printf(
      "  load: serial=%.3fs parallel=%.3fs (%.2fx) mmap=%.3fs (%.2fx vs "
      "parallel copy); resident postings %.1f MiB copy vs %.1f MiB map; "
      "index heap %.1f MiB copy vs %.1f MiB map\n",
      seconds[0], seconds[1], parallel_speedup, seconds[2], map_speedup,
      static_cast<double>(resident[1]) / (1024.0 * 1024.0),
      static_cast<double>(resident[2]) / (1024.0 * 1024.0),
      static_cast<double>(index_bytes[1]) / (1024.0 * 1024.0),
      static_cast<double>(index_bytes[2]) / (1024.0 * 1024.0));
  // Summary entry keeps the PR-4 keys so existing consumers of the
  // artifact continue to parse, plus the map-vs-copy comparison.
  emitter->AddEntry("load/K=" + std::to_string(k),
                    {{"shards", static_cast<double>(k)},
                     {"load_serial_s", seconds[0]},
                     {"load_parallel_s", seconds[1]},
                     {"load_speedup", parallel_speedup},
                     {"load_map_s", seconds[2]},
                     {"map_speedup_vs_parallel", map_speedup},
                     {"resident_posting_bytes_copy",
                      static_cast<double>(resident[1])},
                     {"resident_posting_bytes_map",
                      static_cast<double>(resident[2])}});
  return true;
}

// Returns false on query failure so main can fail the (CI) run.
bool RunQuery(const char* name, const char* query_text,
              const AnnotatedCorpus& corpus, const ShardedKokoIndex& index,
              const DocumentStore& store, const Pipeline& pipeline,
              const EmbeddingModel& embeddings, size_t k,
              bench::JsonEmitter* emitter) {
  Engine engine(&corpus, &index, &embeddings, &pipeline.recognizer());
  engine.set_document_store(&store);
  EngineOptions options;
  options.max_rows = 500000;
  auto result = engine.ExecuteText(query_text, options);
  if (!result.ok()) {
    std::printf("  %s FAILED: %s\n", name, result.status().ToString().c_str());
    return false;
  }
  const PhaseStats& p = result->phases;
  std::printf(
      "  %-12s K=%zu total=%7.3fs | DPLI=%.4f Load=%.4f extract=%.4f | "
      "rows=%zu\n",
      name, k, p.Total(), p.Get("DPLI"), p.Get("LoadArticle"),
      p.Get("extract"), result->rows.size());
  emitter->AddEntry(std::string(name) + "/K=" + std::to_string(k),
                    {{"shards", static_cast<double>(k)},
                     {"total_s", p.Total()},
                     {"dpli_s", p.Get("DPLI")},
                     {"load_article_s", p.Get("LoadArticle")},
                     {"extract_s", p.Get("extract")},
                     {"satisfying_s", p.Get("satisfying")},
                     {"rows", static_cast<double>(result->rows.size())}});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t articles =
      argc > 1 ? static_cast<size_t>(std::strtoul(argv[1], nullptr, 10)) : 4000;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("Shard scale-up: parallel index build + per-shard query "
              "phases (%zu articles, %u hardware threads)\n\n",
              articles, cores);

  Pipeline pipeline;
  auto docs = GenerateWikiArticles(
      {.num_articles = static_cast<int>(articles), .seed = 901});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  DocumentStore store = DocumentStore::FromCorpus(corpus);
  EmbeddingModel embeddings;

  bench::JsonEmitter emitter("shard_scaleup");
  emitter.SetMeta("articles", static_cast<double>(articles));
  emitter.SetMeta("sentences", static_cast<double>(corpus.NumSentences()));
  emitter.SetMeta("hardware_threads", static_cast<double>(cores));

  bool ok = true;
  double base_build_s = 0;
  for (size_t k : {1u, 2u, 4u, 8u}) {
    ShardedKokoIndex::Options build_options;
    build_options.num_shards = k;
    build_options.build_threads = k;
    auto index = ShardedKokoIndex::Build(corpus, build_options);
    const double build_s = index->stats().build_seconds;
    if (k == 1) base_build_s = build_s;
    const double speedup = build_s > 0 ? base_build_s / build_s : 0;
    std::printf("-- K=%zu: build=%.3fs (speedup %.2fx vs K=1)%s --\n", k,
                build_s, speedup,
                k == 4 && speedup > 1.5 ? "  [>1.5x target met]" : "");
    emitter.AddEntry("build/K=" + std::to_string(k),
                     {{"shards", static_cast<double>(k)},
                      {"build_s", build_s},
                      {"speedup_vs_1", speedup}});
    ok &= TimeLoad(*index, k, &emitter);
    ok &= RunQuery("Chocolate", kChocolateQuery, corpus, *index, store,
                   pipeline, embeddings, k, &emitter);
    ok &= RunQuery("Title", kTitleQuery, corpus, *index, store, pipeline,
                   embeddings, k, &emitter);
    std::printf("\n");
  }
  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_shard_scaleup.json\n");
    return 1;
  }
  return ok ? 0 : 1;
}
