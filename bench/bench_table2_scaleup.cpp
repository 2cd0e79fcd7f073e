// Table 2: end-to-end KOKO execution time, broken down by phase (Normalize,
// DPLI, LoadArticle, GSP, extract, satisfying), for the three §6.3 example
// queries (Chocolate: low selectivity; Title: medium; DateOfBirth: high) as
// the corpus grows, then as the shard count K grows.
//
// Paper shape: total time linear in #articles; Normalize + GSP < 2%;
// LoadArticle dominates (>= ~50%); DPLI's share is larger for selective
// queries; selectivity ordering Chocolate < Title < DateOfBirth.
//
// Article sweep, one shard: 500/1000/2000/4000 articles, or up to argv[1]
// (CI smoke-runs a small sweep). Each point reports resident posting-list
// memory, copy-vs-map load time and every query's phases.
//
// Shard sweep, over the largest corpus: K = 2, 4, 8, with the article
// sweep's last point as K=1. Each K reports the ShardedKokoIndex build
// time, a bench::MedianOfWarmRuns median like every point's build (shards
// build in parallel on transient threads, so the speedup should approach
// min(K, cores); the bar is > 1.5x at K=4 on the 4000-article corpus on
// multi-core hardware) with that build's process CPU time, the load
// sweep (serial
// copy, shard-parallel copy, shard-parallel mmap) and the same query
// measurements over K shards (a query runs on one thread, DPLI visiting
// its K shards in order).
//
// Each query runs cold with the document store (the paper's DBMS mode),
// then cold without it (LoadArticle borrows the resident corpus); then
// both are timed as bench::MedianOfWarmRuns medians. Exits nonzero on any
// failed save, load (a kMap load that did not map included), query or
// JSON write. Emits BENCH_table2_scaleup.json.
#include "bench_util.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <set>
#include <span>
#include <thread>

#include "storage/doc_store.h"
#include "util/timer.h"

using namespace koko;

namespace {

constexpr const char* kImage = "bench_table2_scaleup_index.bin";

struct NamedQuery {
  const char* name;
  const char* text;
};
constexpr NamedQuery kQueries[] = {
    {"Chocolate", bench::kChocolateQuery},
    {"Title", bench::kTitleQuery},
    {"DateOfBirth", bench::kDateOfBirthQuery},
};

// One point of either sweep: `label` names its entries ("4000", "K=2"),
// and every entry leads with `key` = `value` ("articles" or "shards").
struct Point {
  std::string label;
  const char* key;
  double value;
};

using Values = std::vector<std::pair<std::string, double>>;

Values Lead(const Point& point, std::initializer_list<Values::value_type> rest) {
  Values values = {{point.key, point.value}};
  values.insert(values.end(), rest);
  return values;
}

struct LoadVariant {
  LoadMode mode;
  size_t num_threads;  // 0 = one worker per shard
  const char* name;    // entry suffix
};
// With one shard a serial and a parallel load are the same load.
constexpr LoadVariant kArticleLoads[] = {
    {LoadMode::kCopy, 0, "copy"},
    {LoadMode::kMap, 0, "map"},
};
constexpr LoadVariant kShardLoads[] = {
    {LoadMode::kCopy, 1, "copy-serial"},
    {LoadMode::kCopy, 0, "copy-parallel"},
    {LoadMode::kMap, 0, "map-parallel"},
};

struct LoadSample {
  double seconds;
  size_t posting_bytes;
  size_t index_bytes;
};

// Saves `index`, then loads it back once per variant and emits one
// `load/<point>/<variant>` entry each, tagged with its `load_mode`. Both
// modes alias the whole image in place: resident_posting_bytes is ~0 for
// kMap (the pages belong to the file mapping) and the posting bytes of
// the owned image buffer for kCopy; resident_index_bytes is the loaded
// index's whole heap (MemoryUsage), an owned image buffer included.
// Returns nothing on a failed save or load, or a kMap load that did not
// map.
std::optional<std::vector<LoadSample>> TimeLoads(
    const ShardedKokoIndex& index, const Point& point,
    std::span<const LoadVariant> variants, bench::JsonEmitter* emitter) {
  if (Status saved = index.Save(kImage); !saved.ok()) {
    std::fprintf(stderr, "save FAILED at %s: %s\n", point.label.c_str(),
                 saved.ToString().c_str());
    return std::nullopt;
  }
  std::vector<LoadSample> samples;
  for (const LoadVariant& variant : variants) {
    ShardedKokoIndex::LoadOptions options;
    options.num_threads = variant.num_threads;
    options.mode = variant.mode;
    WallTimer timer;
    auto loaded = ShardedKokoIndex::Load(kImage, options);
    const double seconds = timer.ElapsedSeconds();
    const bool is_map = variant.mode == LoadMode::kMap;
    if (!loaded.ok() || (is_map && !(*loaded)->mapped())) {
      std::fprintf(stderr, "load (%s) FAILED at %s: %s\n", variant.name,
                   point.label.c_str(),
                   loaded.ok() ? "did not map"
                               : loaded.status().ToString().c_str());
      std::remove(kImage);
      return std::nullopt;
    }
    const LoadSample sample{seconds, (*loaded)->SidCacheMemoryUsage(),
                            (*loaded)->MemoryUsage()};
    std::printf("   load (%s): %.3fs, resident postings %.2f MiB, "
                "index heap %.2f MiB\n",
                variant.name, seconds,
                static_cast<double>(sample.posting_bytes) / (1024.0 * 1024.0),
                static_cast<double>(sample.index_bytes) / (1024.0 * 1024.0));
    emitter->AddEntry(
        "load/" + point.label + "/" + variant.name,
        {{"load_mode", is_map ? "map" : "copy"}},
        Lead(point,
             {{"load_s", seconds},
              {"resident_posting_bytes",
               static_cast<double>(sample.posting_bytes)},
              {"resident_index_bytes",
               static_cast<double>(sample.index_bytes)}}));
    samples.push_back(sample);
  }
  std::remove(kImage);
  return samples;
}

// Runs one query cold with the store and cold without it, then times the
// warm medians of both. Emits `<query>/<point>`: the cold runs' phases,
// totals and wall times, and the warm median wall times. Returns false
// when any run fails.
bool RunQuery(const NamedQuery& query, const AnnotatedCorpus& corpus,
              const ShardedKokoIndex& index, const DocumentStore& store,
              const Pipeline& pipeline, const EmbeddingModel& embeddings,
              const Point& point, bench::JsonEmitter* emitter) {
  Engine engine(&corpus, &index, &embeddings, &pipeline.recognizer());
  EngineOptions options;
  options.max_rows = 500000;
  auto timed_run = [&](const DocumentStore* docs, double* wall) {
    engine.set_document_store(docs);
    WallTimer timer;
    auto result = engine.ExecuteText(query.text, options);
    *wall = timer.ElapsedSeconds();
    return result;
  };
  auto warm_wall = [&](const DocumentStore* docs) {
    return bench::MedianOfWarmRuns([&] {
      double wall = 0;
      return timed_run(docs, &wall).ok() ? wall : -1.0;
    });
  };
  double wall = 0;
  double resident_wall = 0;
  auto result = timed_run(&store, &wall);
  auto resident = timed_run(nullptr, &resident_wall);
  if (!result.ok() || !resident.ok()) {
    std::fprintf(stderr, "%s FAILED at %s: %s\n", query.name,
                 point.label.c_str(),
                 (result.ok() ? resident : result).status().ToString().c_str());
    return false;
  }
  const double warm_wall_s = warm_wall(&store);
  const double warm_resident_wall_s = warm_wall(nullptr);
  if (warm_wall_s < 0 || warm_resident_wall_s < 0) {
    std::fprintf(stderr, "%s FAILED at %s in a warm run\n", query.name,
                 point.label.c_str());
    return false;
  }
  std::set<uint32_t> docs_with_rows;
  for (const auto& row : result->rows) docs_with_rows.insert(row.doc);
  const PhaseStats& p = result->phases;
  const double total = p.Total();
  const double resident_total = resident->phases.Total();
  std::printf(
      "  %-12s total=%7.3fs wall=%7.3fs | Norm=%.4f DPLI=%.4f Load=%.4f "
      "GSP=%.4f extract=%.4f satisfying=%.4f | rows=%zu, %zu/%zu docs "
      "(%.1f%% sel.)\n",
      query.name, total, wall, p.Get("Normalize"), p.Get("DPLI"),
      p.Get("LoadArticle"), p.Get("GSP"), p.Get("extract"),
      p.Get("satisfying"), result->rows.size(), docs_with_rows.size(),
      corpus.NumDocs(),
      100.0 * static_cast<double>(docs_with_rows.size()) /
          static_cast<double>(corpus.NumDocs()));
  std::printf("  %-12s no store: total=%7.3fs wall=%7.3fs (%.2fx faster)\n",
              "", resident_total, resident_wall,
              resident_wall > 0 ? wall / resident_wall : 0.0);
  std::printf("  %-12s warm median wall: %.3f ms, no store %.3f ms\n", "",
              1e3 * warm_wall_s, 1e3 * warm_resident_wall_s);
  emitter->AddEntry(
      std::string(query.name) + "/" + point.label,
      Lead(point,
           {{"sentences", static_cast<double>(corpus.NumSentences())},
            {"total_s", total},
            {"wall_s", wall},
            {"resident_total_s", resident_total},
            {"resident_wall_s", resident_wall},
            {"warm_wall_s", warm_wall_s},
            {"warm_resident_wall_s", warm_resident_wall_s},
            {"normalize_s", p.Get("Normalize")},
            {"dpli_s", p.Get("DPLI")},
            {"load_article_s", p.Get("LoadArticle")},
            {"gsp_s", p.Get("GSP")},
            {"extract_s", p.Get("extract")},
            {"satisfying_s", p.Get("satisfying")},
            {"rows", static_cast<double>(result->rows.size())}}));
  return true;
}

bool RunQueries(const AnnotatedCorpus& corpus, const ShardedKokoIndex& index,
                const DocumentStore& store, const Pipeline& pipeline,
                const EmbeddingModel& embeddings, const Point& point,
                bench::JsonEmitter* emitter) {
  bool ok = true;
  for (const NamedQuery& query : kQueries) {
    ok &= RunQuery(query, corpus, index, store, pipeline, embeddings, point,
                   emitter);
  }
  return ok;
}

// The shard point's load summary from kShardLoads' samples, in order:
// serial vs parallel copy, and the zero-copy map vs the parallel copy.
void EmitLoadSummary(const Point& point,
                     const std::vector<LoadSample>& loads,
                     bench::JsonEmitter* emitter) {
  const LoadSample& serial = loads[0];
  const LoadSample& parallel = loads[1];
  const LoadSample& map = loads[2];
  const double parallel_speedup =
      parallel.seconds > 0 ? serial.seconds / parallel.seconds : 0;
  const double map_speedup = map.seconds > 0 ? parallel.seconds / map.seconds : 0;
  std::printf("   load: parallel copy %.2fx vs serial, mmap %.2fx vs "
              "parallel copy\n",
              parallel_speedup, map_speedup);
  emitter->AddEntry(
      "load/" + point.label,
      Lead(point, {{"load_serial_s", serial.seconds},
                   {"load_parallel_s", parallel.seconds},
                   {"load_speedup", parallel_speedup},
                   {"load_map_s", map.seconds},
                   {"map_speedup_vs_parallel", map_speedup},
                   {"resident_posting_bytes_copy",
                    static_cast<double>(parallel.posting_bytes)},
                   {"resident_posting_bytes_map",
                    static_cast<double>(map.posting_bytes)}}));
}

// User plus system CPU time this process has used, all threads together.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Builds `corpus` under bench::MedianOfWarmRuns, so every point's build
// time follows the queries' timing rule: returns the last build, its
// median build_seconds in `*build_s`, and the process CPU time of that
// median build in `*build_cpu_s` (CPU / wall near K says the K build
// threads ran side by side).
std::unique_ptr<ShardedKokoIndex> TimedBuild(
    const AnnotatedCorpus& corpus, const ShardedKokoIndex::Options& options,
    double* build_s, double* build_cpu_s) {
  std::unique_ptr<ShardedKokoIndex> index;
  std::vector<std::pair<double, double>> builds;  // (wall, CPU) per build
  *build_s = bench::MedianOfWarmRuns([&] {
    index.reset();
    const double cpu_before = ProcessCpuSeconds();
    index = ShardedKokoIndex::Build(corpus, options);
    builds.emplace_back(index->stats().build_seconds,
                        ProcessCpuSeconds() - cpu_before);
    return builds.back().first;
  });
  // The first build is the untimed warm-up.
  for (size_t i = 1; i < builds.size(); ++i) {
    if (builds[i].first == *build_s) *build_cpu_s = builds[i].second;
  }
  return index;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t max_articles =
      argc > 1 ? static_cast<size_t>(std::strtoul(argv[1], nullptr, 10)) : 4000;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("Table 2 reproduction: phase breakdown of the three example "
              "queries\n");
  std::printf("paper shape: linear scaling; LoadArticle dominant; Normalize+GSP "
              "tiny; selectivity Chocolate < Title < DateOfBirth\n\n");
  Pipeline pipeline;
  auto all_docs = GenerateWikiArticles(
      {.num_articles = static_cast<int>(max_articles), .seed = 901});
  AnnotatedCorpus full = pipeline.AnnotateCorpus(all_docs);
  EmbeddingModel embeddings;
  bench::JsonEmitter emitter("table2_scaleup");
  emitter.SetMeta("max_articles", static_cast<double>(max_articles));
  emitter.SetMeta("hardware_threads", static_cast<double>(cores));

  std::vector<size_t> sweep;
  for (size_t articles : {500u, 1000u, 2000u, 4000u}) {
    if (articles < max_articles) sweep.push_back(articles);
  }
  sweep.push_back(max_articles);
  bool ok = true;
  // K=1 over the largest corpus: the last point.
  double base_build_s = 0;
  double base_build_cpu_s = 0;
  const DocumentStore full_store = DocumentStore::FromCorpus(full);
  for (size_t articles : sweep) {
    // Every point but the last runs on a prefix of the full corpus.
    AnnotatedCorpus prefix;
    std::optional<DocumentStore> prefix_store;
    if (articles < max_articles) {
      prefix.docs.assign(full.docs.begin(),
                         full.docs.begin() + static_cast<long>(articles));
      prefix.RebuildRefs();
      prefix_store.emplace(DocumentStore::FromCorpus(prefix));
    }
    const AnnotatedCorpus& corpus = prefix_store ? prefix : full;
    const DocumentStore& store = prefix_store ? *prefix_store : full_store;
    auto index = TimedBuild(corpus, {}, &base_build_s, &base_build_cpu_s);
    // Resident posting-list footprint: the block-compressed sid caches vs
    // what the same sets cost fully decoded (4 bytes/sid, the pre-block
    // representation's floor — vector slack pushed it higher). The block
    // layout's acceptance bar is >= 2x smaller.
    const size_t posting_bytes = index->SidCacheMemoryUsage();
    const size_t decoded_bytes =
        index->shard(0).SidCacheDecodedEquivalentBytes();  // the one shard
    std::printf("-- %zu articles (%zu sentences): posting lists %.1f MiB "
                "compressed vs %.1f MiB decoded (%.2fx) --\n",
                articles, corpus.NumSentences(),
                static_cast<double>(posting_bytes) / (1024.0 * 1024.0),
                static_cast<double>(decoded_bytes) / (1024.0 * 1024.0),
                posting_bytes > 0
                    ? static_cast<double>(decoded_bytes) /
                          static_cast<double>(posting_bytes)
                    : 0.0);
    emitter.AddEntry(
        "index_memory/" + std::to_string(articles),
        {{"articles", static_cast<double>(articles)},
         {"posting_bytes_compressed", static_cast<double>(posting_bytes)},
         {"posting_bytes_decoded_equiv", static_cast<double>(decoded_bytes)},
         {"index_bytes_total", static_cast<double>(index->MemoryUsage())}});
    const Point point{std::to_string(articles), "articles",
                      static_cast<double>(articles)};
    ok &= TimeLoads(*index, point, kArticleLoads, &emitter).has_value();
    ok &= RunQueries(corpus, *index, store, pipeline, embeddings, point,
                     &emitter);
    std::printf("\n");
  }

  std::printf("Shard sweep: %zu articles, %u hardware threads; K=1 is the "
              "point above (median build=%.3fs, cpu=%.3fs)\n\n",
              max_articles, cores, base_build_s, base_build_cpu_s);
  emitter.AddEntry("build/K=1", {{"shards", 1},
                                 {"build_s", base_build_s},
                                 {"build_cpu_s", base_build_cpu_s},
                                 {"speedup_vs_1", 1}});
  for (size_t k : {2u, 4u, 8u}) {
    ShardedKokoIndex::Options build_options;
    build_options.num_shards = k;
    build_options.build_threads = k;
    double build_s = 0;
    double build_cpu_s = 0;
    auto index = TimedBuild(full, build_options, &build_s, &build_cpu_s);
    const double speedup = build_s > 0 ? base_build_s / build_s : 0;
    std::printf("-- K=%zu: build=%.3fs cpu=%.3fs (speedup %.2fx vs K=1)%s --\n",
                k, build_s, build_cpu_s, speedup,
                k == 4 && speedup > 1.5 ? "  [>1.5x target met]" : "");
    const Point point{"K=" + std::to_string(k), "shards",
                      static_cast<double>(k)};
    emitter.AddEntry("build/" + point.label,
                     Lead(point, {{"build_s", build_s},
                                  {"build_cpu_s", build_cpu_s},
                                  {"speedup_vs_1", speedup}}));
    if (auto loads = TimeLoads(*index, point, kShardLoads, &emitter)) {
      EmitLoadSummary(point, *loads, &emitter);
    } else {
      ok = false;
    }
    ok &= RunQueries(full, *index, full_store, pipeline, embeddings, point,
                     &emitter);
    std::printf("\n");
  }
  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_table2_scaleup.json\n");
    return 1;
  }
  return ok ? 0 : 1;
}
