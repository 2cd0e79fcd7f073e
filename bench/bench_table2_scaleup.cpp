// Table 2: end-to-end KOKO execution time, broken down by phase (Normalize,
// DPLI, LoadArticle, GSP, extract, satisfying), for the three §6.3 example
// queries (Chocolate: low selectivity; Title: medium; DateOfBirth: high) as
// the corpus grows.
//
// Paper shape: total time linear in #articles; Normalize + GSP < 2%;
// LoadArticle dominates (>= ~50%); DPLI's share is larger for selective
// queries; selectivity ordering Chocolate < Title < DateOfBirth.
// argv[1] optionally overrides the max article count (default 4000) so CI
// can smoke-run the sweep (and upload the index-memory telemetry) quickly.
#include "bench_util.h"

#include <cstdlib>
#include <set>

#include "storage/doc_store.h"

using namespace koko;

namespace {

// The §6.3 queries, with paths phrased in this parser's label conventions
// (documented in EXPERIMENTS.md).
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

const char* kDateOfBirthQuery = R"(
extract a:Person, b:Date from wiki.article if (
  /ROOT:{ v = verb })
satisfying v
  (v SimilarTo "born" {1})
with threshold 0.9
)";

void RunQuery(const char* name, const char* query_text,
              const AnnotatedCorpus& corpus, const ShardedKokoIndex& index,
              const DocumentStore& store, const Pipeline& pipeline,
              const EmbeddingModel& embeddings, size_t articles,
              bench::JsonEmitter* emitter) {
  Engine engine(&corpus, &index, &embeddings, &pipeline.recognizer());
  EngineOptions options;
  options.max_rows = 500000;
  // Store-backed first, as in the paper's DBMS mode, then the same query
  // without the store: LoadArticle then borrows the resident corpus.
  engine.set_document_store(&store);
  WallTimer timer;
  auto result = engine.ExecuteText(query_text, options);
  const double wall = timer.ElapsedSeconds();
  engine.set_document_store(nullptr);
  WallTimer resident_timer;
  auto resident = engine.ExecuteText(query_text, options);
  const double resident_wall = resident_timer.ElapsedSeconds();
  if (!result.ok() || !resident.ok()) {
    std::printf("  %s FAILED: %s\n", name,
                (result.ok() ? resident : result).status().ToString().c_str());
    return;
  }
  std::set<uint32_t> docs_with_rows;
  for (const auto& row : result->rows) docs_with_rows.insert(row.doc);
  const PhaseStats& p = result->phases;
  double total = p.Total();
  const double resident_total = resident->phases.Total();
  std::printf(
      "  %-12s total=%7.3fs wall=%7.3fs | Norm=%.4f DPLI=%.4f Load=%.4f "
      "GSP=%.4f extract=%.4f satisfying=%.4f | rows=%zu, %zu/%zu docs "
      "(%.1f%% sel.)\n",
      name, total, wall, p.Get("Normalize"), p.Get("DPLI"),
      p.Get("LoadArticle"), p.Get("GSP"), p.Get("extract"),
      p.Get("satisfying"), result->rows.size(), docs_with_rows.size(),
      corpus.NumDocs(),
      100.0 * static_cast<double>(docs_with_rows.size()) /
          static_cast<double>(corpus.NumDocs()));
  std::printf("  %-12s no store: total=%7.3fs wall=%7.3fs (%.2fx faster)\n",
              "", resident_total, resident_wall,
              resident_wall > 0 ? wall / resident_wall : 0.0);
  emitter->AddEntry(
      std::string(name) + "/" + std::to_string(articles),
      {{"articles", static_cast<double>(articles)},
       {"sentences", static_cast<double>(corpus.NumSentences())},
       {"total_s", total},
       {"wall_s", wall},
       {"resident_total_s", resident_total},
       {"resident_wall_s", resident_wall},
       {"normalize_s", p.Get("Normalize")},
       {"dpli_s", p.Get("DPLI")},
       {"load_article_s", p.Get("LoadArticle")},
       {"gsp_s", p.Get("GSP")},
       {"extract_s", p.Get("extract")},
       {"satisfying_s", p.Get("satisfying")},
       {"rows", static_cast<double>(result->rows.size())}});
}

}  // namespace

int main(int argc, char** argv) {
  const size_t max_articles =
      argc > 1 ? static_cast<size_t>(std::strtoul(argv[1], nullptr, 10)) : 4000;
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

  std::vector<size_t> sweep;
  for (size_t articles : {500u, 1000u, 2000u, 4000u}) {
    if (articles < max_articles) sweep.push_back(articles);
  }
  sweep.push_back(max_articles);
  for (size_t articles : sweep) {
    AnnotatedCorpus corpus;
    corpus.docs.assign(full.docs.begin(),
                       full.docs.begin() + static_cast<long>(articles));
    corpus.RebuildRefs();
    auto index = ShardedKokoIndex::Build(corpus, 1);
    DocumentStore store = DocumentStore::FromCorpus(corpus);
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
    // Load-path telemetry: kCopy vs kMap of the same image. Both alias the
    // whole image in place; kMap's entry reports ~0 resident posting bytes
    // (the pages belong to the file mapping), kCopy's the posting bytes
    // of its owned image buffer. resident_index_bytes is the loaded
    // index's whole heap (MemoryUsage), owned image buffer included.
    {
      const std::string image = "bench_table2_scaleup_index.bin";
      if (!index->Save(image).ok()) {
        std::fprintf(stderr, "index save failed at %zu articles\n", articles);
      } else {
        for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
          const char* mode_name = mode == LoadMode::kMap ? "map" : "copy";
          ShardedKokoIndex::LoadOptions load;
          load.mode = mode;
          WallTimer timer;
          auto loaded = ShardedKokoIndex::Load(image, load);
          const double load_s = timer.ElapsedSeconds();
          if (!loaded.ok()) {
            std::fprintf(stderr, "%s load failed: %s\n", mode_name,
                         loaded.status().ToString().c_str());
            continue;
          }
          const size_t resident = (*loaded)->SidCacheMemoryUsage();
          const size_t index_bytes = (*loaded)->MemoryUsage();
          std::printf("   load (%s): %.3fs, resident postings %.2f MiB, "
                      "index heap %.2f MiB\n",
                      mode_name, load_s,
                      static_cast<double>(resident) / (1024.0 * 1024.0),
                      static_cast<double>(index_bytes) / (1024.0 * 1024.0));
          emitter.AddEntry(
              "load/" + std::to_string(articles) + "/" + mode_name,
              {{"load_mode", mode_name}},
              {{"articles", static_cast<double>(articles)},
               {"load_s", load_s},
               {"resident_posting_bytes", static_cast<double>(resident)},
               {"resident_index_bytes", static_cast<double>(index_bytes)}});
        }
        std::remove(image.c_str());
      }
    }
    RunQuery("Chocolate", kChocolateQuery, corpus, *index, store, pipeline,
             embeddings, articles, &emitter);
    RunQuery("Title", kTitleQuery, corpus, *index, store, pipeline, embeddings,
             articles, &emitter);
    RunQuery("DateOfBirth", kDateOfBirthQuery, corpus, *index, store, pipeline,
             embeddings, articles, &emitter);
    std::printf("\n");
  }
  if (!emitter.WriteFile()) {
    std::fprintf(stderr, "failed to write BENCH_table2_scaleup.json\n");
  }
  return 0;
}
