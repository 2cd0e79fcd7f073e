#include "index/sharded_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "corpus/generators.h"
#include "index/path_lookup.h"
#include "koko/engine.h"
#include "nlp/pipeline.h"
#include "util/hash.h"

#ifndef KOKO_GOLDEN_DIR
#error "KOKO_GOLDEN_DIR must be defined (see CMakeLists.txt)"
#endif

namespace koko {
namespace {

AnnotatedCorpus MomentsCorpus(int n, uint64_t seed) {
  Pipeline pipeline;
  return pipeline.AnnotateCorpus(
      GenerateHappyMoments({.num_moments = n, .seed = seed}));
}

// The two sentences of the paper's Example 3.1.
AnnotatedCorpus PaperCorpus() {
  Pipeline pipeline;
  return pipeline.AnnotateCorpus(
      {{"d0",
        "I ate a chocolate ice cream, which was delicious, and also ate a "
        "pie."},
       {"d1",
        "Anna ate some delicious cheesecake that she bought at a grocery "
        "store."}});
}

constexpr auto kChild = PathStep::Axis::kChild;
constexpr auto kDescendant = PathStep::Axis::kDescendant;

PathQuery DobjPath() {
  return {{{kChild, {.dep = DepLabel::kRoot}},
           {kDescendant, {.dep = DepLabel::kDobj}}}};
}
PathQuery RootDobjNnPath() {
  return {{{kChild, {.dep = DepLabel::kRoot}},
           {kChild, {.dep = DepLabel::kDobj}},
           {kChild, {.dep = DepLabel::kNn}}}};
}
PathQuery AnyPath() { return {{{kDescendant, {}}}}; }
PathQuery PrepPobjPath() {
  return {{{kDescendant, {.dep = DepLabel::kPrep}},
           {kChild, {.dep = DepLabel::kPobj}}}};
}
PathQuery VerbPath() { return {{{kDescendant, {.pos = PosTag::kVerb}}}}; }

// Concatenates `lookup(shard)` over the shards in shard order. The shard
// ranges are disjoint and ascending, so this is the global answer, which
// must equal the monolithic index's element for element.
template <typename Lookup>
auto Concat(const ShardedKokoIndex& index, const Lookup& lookup) {
  decltype(lookup(index.shard(0))) out;
  for (size_t i = 0; i < index.num_shards(); ++i) {
    const auto part = lookup(index.shard(i));
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// Per-shard lookups for Concat (sid lists decoded to plain ids).
std::vector<uint32_t> Ids(const BlockList* list) {
  return list == nullptr ? std::vector<uint32_t>() : list->Decode().TakeIds();
}
auto WordPostings(std::string word) {
  return [=](const KokoIndex& s) { return s.LookupWord(word); };
}
auto WordSidIds(std::string word) {
  return [=](const KokoIndex& s) { return Ids(s.WordSids(word)); };
}
auto EntityText(std::string text) {
  return [=](const KokoIndex& s) { return s.LookupEntityText(text); };
}
auto PlPathPostings(PathQuery path) {
  return [=](const KokoIndex& s) { return s.LookupParseLabelPath(path); };
}
auto PlPathSidIds(PathQuery path) {
  return [=](const KokoIndex& s) { return s.PlPathSids(path).TakeIds(); };
}
auto PosPathPostings(PathQuery path) {
  return [=](const KokoIndex& s) { return s.LookupPosPath(path); };
}
auto PosPathSidIds(PathQuery path) {
  return [=](const KokoIndex& s) { return s.PosPathSids(path).TakeIds(); };
}
std::vector<EntityPosting> AllEntities(const KokoIndex& s) {
  return s.AllEntities();
}
std::vector<uint32_t> AllEntitySidIds(const KokoIndex& s) {
  return Ids(&s.AllEntitySids());
}

void ExpectLookupsMatchMonolithic(const ShardedKokoIndex& sharded,
                                  const KokoIndex& mono,
                                  const AnnotatedCorpus& corpus,
                                  const std::string& context) {
  for (const char* word : {"a", "delicious", "ate", "store", "zzz-absent"}) {
    EXPECT_EQ(Concat(sharded, WordPostings(word)), mono.LookupWord(word))
        << context << " word=" << word;
    EXPECT_EQ(Concat(sharded, WordSidIds(word)), Ids(mono.WordSids(word)))
        << context << " word=" << word;
    EXPECT_EQ(Concat(sharded, WordSidIds(word)).size(),
              mono.CountWordSids(word))
        << context << " word=" << word;
  }
  std::set<std::string> texts = {"zzz-absent"};
  for (uint32_t sid = 0; sid < corpus.NumSentences() && texts.size() < 8;
       ++sid) {
    const Sentence& s = corpus.sentence(sid);
    for (const Entity& e : s.entities) texts.insert(s.SpanText(e.begin, e.end));
  }
  for (const std::string& text : texts) {
    EXPECT_EQ(Concat(sharded, EntityText(text)), mono.LookupEntityText(text))
        << context << " text=" << text;
  }
  PathQuery path = DobjPath();
  EXPECT_EQ(Concat(sharded, PlPathPostings(path)),
            mono.LookupParseLabelPath(path))
      << context;
  EXPECT_EQ(Concat(sharded, PlPathSidIds(path)), mono.PlPathSids(path).ids())
      << context;
  EXPECT_EQ(Concat(sharded, AllEntities), mono.AllEntities()) << context;
  EXPECT_EQ(Concat(sharded, AllEntitySidIds), AllEntitySidIds(mono))
      << context;
  for (size_t t = 0; t < kNumEntityTypes; ++t) {
    const auto type = static_cast<EntityType>(t);
    EXPECT_EQ(Concat(sharded,
                     [&](const KokoIndex& s) {
                       return Ids(&s.EntityTypeSids(type));
                     }),
              Ids(&mono.EntityTypeSids(type)))
        << context << " type=" << t;
  }
  const KokoIndex::Stats& ms = mono.stats();
  KokoIndex::Stats ss = sharded.stats();
  EXPECT_EQ(ss.num_sentences, ms.num_sentences) << context;
  EXPECT_EQ(ss.num_tokens, ms.num_tokens) << context;
  EXPECT_EQ(ss.num_entities, ms.num_entities) << context;
}

// Manifest layout: magic | version | shard count, then per shard
// u32 begin | u32 end | u64 extent.
constexpr size_t kManifestHeader = 12;
constexpr size_t kManifestEntry = 16;

std::vector<char> ReadImage(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteImage(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<long>(bytes.size()));
}

void PatchU32(std::vector<char>* image, size_t at, uint32_t value) {
  std::memcpy(image->data() + at, &value, sizeof(value));
}

TEST(ShardedKokoIndexTest, MatchesMonolithicAcrossShardCounts) {
  AnnotatedCorpus corpus = MomentsCorpus(120, 71);
  auto mono = KokoIndex::Build(corpus);
  for (size_t k : {1u, 2u, 4u, 7u}) {
    auto sharded = ShardedKokoIndex::Build(corpus, k);
    ASSERT_EQ(sharded->num_shards(), k);
    // Default ranges partition [0, N) contiguously.
    EXPECT_EQ(sharded->shard_range(0).begin, 0u);
    EXPECT_EQ(sharded->shard_range(k - 1).end, corpus.NumSentences());
    for (size_t i = 0; i + 1 < k; ++i) {
      EXPECT_EQ(sharded->shard_range(i).end, sharded->shard_range(i + 1).begin);
    }
    ExpectLookupsMatchMonolithic(*sharded, *mono, corpus,
                                 "K=" + std::to_string(k));
  }
}

TEST(ShardedKokoIndexTest, UnevenAndEmptyShardBoundaries) {
  AnnotatedCorpus corpus = MomentsCorpus(60, 72);
  const uint32_t n = static_cast<uint32_t>(corpus.NumSentences());
  ASSERT_GE(n, 10u);
  auto mono = KokoIndex::Build(corpus);
  // A tiny first shard, an empty middle shard, one giant tail shard.
  ShardedKokoIndex::Options options;
  options.boundaries = {0, 3, 3, n - 1, n};
  auto sharded = ShardedKokoIndex::Build(corpus, options);
  ASSERT_EQ(sharded->num_shards(), 4u);
  EXPECT_EQ(sharded->shard_range(1).begin, sharded->shard_range(1).end);
  ExpectLookupsMatchMonolithic(*sharded, *mono, corpus, "uneven");
}

TEST(ShardedKokoIndexTest, MoreShardsThanSentences) {
  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(
      {{"d0", "Anna ate a delicious pie."}, {"d1", "I ate a pie."}});
  auto mono = KokoIndex::Build(corpus);
  auto sharded = ShardedKokoIndex::Build(corpus, 7);
  ExpectLookupsMatchMonolithic(*sharded, *mono, corpus, "K>N");
}

TEST(ShardedKokoIndexTest, ParallelBuildMatchesSequentialBuild) {
  AnnotatedCorpus corpus = MomentsCorpus(80, 73);
  ShardedKokoIndex::Options sequential;
  sequential.num_shards = 4;
  sequential.build_threads = 1;
  ShardedKokoIndex::Options parallel;
  parallel.num_shards = 4;
  parallel.build_threads = 4;
  auto a = ShardedKokoIndex::Build(corpus, sequential);
  auto b = ShardedKokoIndex::Build(corpus, parallel);
  for (const char* word : {"a", "delicious", "ate"}) {
    EXPECT_EQ(Concat(*a, WordPostings(word)), Concat(*b, WordPostings(word)))
        << word;
  }
  PathQuery path = DobjPath();
  EXPECT_EQ(Concat(*a, PlPathPostings(path)),
            Concat(*b, PlPathPostings(path)));
  EXPECT_EQ(Concat(*a, AllEntities), Concat(*b, AllEntities));
}

TEST(ShardedKokoIndexTest, SaveLoadRoundTrip) {
  // A three-shard index, and the paper's Example 3.1 corpus as one shard.
  const struct {
    AnnotatedCorpus corpus;
    size_t k;
  } inputs[] = {{MomentsCorpus(60, 74), 3}, {PaperCorpus(), 1}};
  for (const auto& [corpus, k] : inputs) {
    const std::string context = "K=" + std::to_string(k);
    auto built = ShardedKokoIndex::Build(corpus, k);
    std::string path = ::testing::TempDir() + "/sharded_index_test.bin";
    ASSERT_TRUE(built->Save(path).ok());
    auto loaded = ShardedKokoIndex::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_EQ((*loaded)->num_shards(), built->num_shards());
    for (size_t i = 0; i < built->num_shards(); ++i) {
      EXPECT_EQ((*loaded)->shard_range(i).begin, built->shard_range(i).begin);
      EXPECT_EQ((*loaded)->shard_range(i).end, built->shard_range(i).end);
      const KokoIndex::Stats& want = built->shard(i).stats();
      const KokoIndex::Stats& got = (*loaded)->shard(i).stats();
      EXPECT_EQ(got.num_sentences, want.num_sentences) << context;
      EXPECT_EQ(got.num_tokens, want.num_tokens) << context;
      EXPECT_EQ(got.num_entities, want.num_entities) << context;
      EXPECT_EQ(got.pl_trie_nodes, want.pl_trie_nodes) << context;
      EXPECT_EQ(got.pos_trie_nodes, want.pos_trie_nodes) << context;
    }
    EXPECT_GT((*loaded)->stats().num_sentences, 0u) << context;
    for (const char* word : {"a", "delicious", "ate"}) {
      EXPECT_EQ(Concat(**loaded, WordPostings(word)),
                Concat(*built, WordPostings(word)))
          << context << " " << word;
      EXPECT_EQ(Concat(**loaded, WordSidIds(word)),
                Concat(*built, WordSidIds(word)))
          << context << " " << word;
    }
    for (const PathQuery& path_q : {DobjPath(), RootDobjNnPath()}) {
      EXPECT_EQ(Concat(**loaded, PlPathPostings(path_q)),
                Concat(*built, PlPathPostings(path_q)))
          << context << " " << path_q.ToString();
      EXPECT_EQ(Concat(**loaded, PlPathSidIds(path_q)),
                Concat(*built, PlPathSidIds(path_q)))
          << context << " " << path_q.ToString();
    }
    EXPECT_EQ(Concat(**loaded, AllEntities), Concat(*built, AllEntities))
        << context;

    // Engine equality across the round trip: same rows from the loaded
    // index.
    Pipeline pipeline;
    EmbeddingModel embeddings;
    Engine from_built(&corpus, built.get(), &embeddings,
                      &const_cast<const Pipeline&>(pipeline).recognizer());
    Engine from_loaded(&corpus, loaded->get(), &embeddings,
                       &const_cast<const Pipeline&>(pipeline).recognizer());
    const char* query =
        "extract b:Str from \"t\" if ( /ROOT:{ a = //verb, b = a/dobj })";
    auto ra = from_built.ExecuteText(query);
    auto rb = from_loaded.ExecuteText(query);
    ASSERT_TRUE(ra.ok()) << context;
    ASSERT_TRUE(rb.ok()) << context;
    ASSERT_EQ(ra->rows.size(), rb->rows.size()) << context;
    for (size_t i = 0; i < ra->rows.size(); ++i) {
      EXPECT_EQ(ra->rows[i].sid, rb->rows[i].sid) << context;
      EXPECT_EQ(ra->rows[i].values, rb->rows[i].values) << context;
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedKokoIndexTest, ParallelLoadMatchesSerialLoad) {
  // The manifest's byte extents let shards load independently;
  // the loaded index must be identical for every worker count.
  AnnotatedCorpus corpus = MomentsCorpus(80, 75);
  auto built = ShardedKokoIndex::Build(corpus, 4);
  std::string path = ::testing::TempDir() + "/sharded_index_parload_test.bin";
  ASSERT_TRUE(built->Save(path).ok());

  ShardedKokoIndex::LoadOptions serial;
  serial.num_threads = 1;
  auto want = ShardedKokoIndex::Load(path, serial);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  std::vector<ShardedKokoIndex::LoadOptions> variants(2);
  variants[0].num_threads = 0;  // one worker per shard
  variants[1].num_threads = 2;
  for (size_t v = 0; v < variants.size(); ++v) {
    auto got = ShardedKokoIndex::Load(path, variants[v]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ((*got)->num_shards(), (*want)->num_shards()) << v;
    for (const char* word : {"a", "delicious", "ate", "zzz-absent"}) {
      EXPECT_EQ(Concat(**got, WordPostings(word)),
                Concat(**want, WordPostings(word)))
          << "v=" << v << " word=" << word;
      EXPECT_EQ(Concat(**got, WordSidIds(word)),
                Concat(**want, WordSidIds(word)))
          << "v=" << v << " word=" << word;
    }
    PathQuery path_q = DobjPath();
    EXPECT_EQ(Concat(**got, PlPathPostings(path_q)),
              Concat(**want, PlPathPostings(path_q)))
        << v;
    EXPECT_EQ(Concat(**got, AllEntities), Concat(**want, AllEntities)) << v;
  }
  std::remove(path.c_str());
}

TEST(ShardedKokoIndexTest, MmapLoadMatchesCopyLoad) {
  // Property suite for LoadMode::kMap over the sharded file: for every
  // (shard count, load worker count), the mapped index answers every
  // lookup byte-identically to the copy-loaded and the built one while all
  // shards alias one shared mapping (~0 owned posting bytes), and both
  // loads re-save the file byte for byte.
  const AnnotatedCorpus moments = MomentsCorpus(100, 77);
  const AnnotatedCorpus larger = MomentsCorpus(200, 9);
  const std::pair<const AnnotatedCorpus*, size_t> inputs[] = {
      {&moments, 1}, {&moments, 3}, {&moments, 4}, {&larger, 1}};
  for (const auto& [corpus, k] : inputs) {
    auto built = ShardedKokoIndex::Build(*corpus, k);
    std::string path = ::testing::TempDir() + "/sharded_index_mmap_" +
                       std::to_string(k) + ".bin";
    ASSERT_TRUE(built->Save(path).ok());
    const std::vector<char> file = ReadImage(path);
    // The bytes of the shard images: the file less its manifest.
    const size_t payload = file.size() - kManifestHeader - k * kManifestEntry;

    // Every word, entity text and sample path answers as the built index
    // does, shard by shard; every stored list of a load is a view.
    std::set<std::string> words = {"zzz-absent"};
    std::set<std::string> texts = {"zzz-absent"};
    for (uint32_t sid = 0; sid < corpus->NumSentences(); ++sid) {
      const Sentence& sentence = corpus->sentence(sid);
      for (const Token& token : sentence.tokens) words.insert(token.text);
      for (const Entity& e : sentence.entities) {
        texts.insert(sentence.SpanText(e.begin, e.end));
      }
    }
    ASSERT_GT(texts.size(), 1u);
    auto expect_matches_build = [&](const ShardedKokoIndex& loaded,
                                    const std::string& context) {
      for (const std::string& word : words) {
        for (size_t i = 0; i < k; ++i) {
          const BlockList* want = built->shard(i).WordSids(word);
          const BlockList* got = loaded.shard(i).WordSids(word);
          ASSERT_EQ(got == nullptr, want == nullptr) << context << " " << word;
          if (got == nullptr) continue;
          EXPECT_EQ(*got, *want) << context << " " << word;
          EXPECT_TRUE(got->is_view()) << context << " " << word;
        }
        EXPECT_EQ(Concat(loaded, WordPostings(word)),
                  Concat(*built, WordPostings(word)))
            << context << " word=" << word;
        EXPECT_EQ(Concat(loaded, WordSidIds(word)),
                  Concat(*built, WordSidIds(word)))
            << context << " word=" << word;
      }
      for (const std::string& text : texts) {
        EXPECT_EQ(Concat(loaded, EntityText(text)),
                  Concat(*built, EntityText(text)))
            << context << " text=" << text;
      }
      for (const PathQuery& path_q :
           {DobjPath(), AnyPath(), PrepPobjPath()}) {
        EXPECT_EQ(Concat(loaded, PlPathPostings(path_q)),
                  Concat(*built, PlPathPostings(path_q)))
            << context << " " << path_q.ToString();
        EXPECT_EQ(Concat(loaded, PlPathSidIds(path_q)),
                  Concat(*built, PlPathSidIds(path_q)))
            << context << " " << path_q.ToString();
      }
      EXPECT_EQ(Concat(loaded, PosPathPostings(VerbPath())),
                Concat(*built, PosPathPostings(VerbPath())))
          << context;
      EXPECT_EQ(Concat(loaded, PosPathSidIds(VerbPath())),
                Concat(*built, PosPathSidIds(VerbPath())))
          << context;
      EXPECT_EQ(Concat(loaded, AllEntities), Concat(*built, AllEntities))
          << context;
      EXPECT_EQ(Concat(loaded, AllEntitySidIds),
                Concat(*built, AllEntitySidIds))
          << context;
      // Save writes the image the index aliases.
      const std::string resaved = path + ".resaved";
      ASSERT_TRUE(loaded.Save(resaved).ok()) << context;
      EXPECT_EQ(ReadImage(resaved), file) << context;
      std::remove(resaved.c_str());
    };

    ShardedKokoIndex::LoadOptions copy;
    copy.num_threads = 1;
    auto want = ShardedKokoIndex::Load(path, copy);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_FALSE((*want)->mapped());
    EXPECT_GT((*want)->SidCacheMemoryUsage(), 0u);
    expect_matches_build(**want, "K=" + std::to_string(k) + " kCopy");

    std::vector<ShardedKokoIndex::LoadOptions> variants(2);
    variants[0].num_threads = 1;
    variants[1].num_threads = 0;  // one worker per shard
    for (size_t v = 0; v < variants.size(); ++v) {
      variants[v].mode = LoadMode::kMap;
      auto got = ShardedKokoIndex::Load(path, variants[v]);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const std::string context = "K=" + std::to_string(k) + " v=" +
                                  std::to_string(v);
      ASSERT_EQ((*got)->num_shards(), k) << context;
      EXPECT_TRUE((*got)->mapped()) << context;
      // No posting-payload copy across all shards: the mapped lists count
      // no heap, while the copy counts its owned image buffer whole.
      EXPECT_EQ((*got)->SidCacheMemoryUsage(), 0u) << context;
      EXPECT_GE((*want)->MemoryUsage(), (*got)->MemoryUsage() + payload)
          << context;
      for (size_t i = 0; i < k; ++i) {
        EXPECT_TRUE((*got)->shard(i).mapped()) << context;
        EXPECT_EQ((*got)->shard_range(i).begin, built->shard_range(i).begin);
        EXPECT_EQ((*got)->shard_range(i).end, built->shard_range(i).end);
      }
      expect_matches_build(**got, context);
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedKokoIndexTest, LoadedShardStatsMatchBuild) {
  // Every loaded shard reports the built shard's statistics under both
  // load modes. num_sentences is not stored in the image: the loader
  // recovers it from the PL trie, and the planner and EXPLAIN read it.
  AnnotatedCorpus corpus = MomentsCorpus(80, 79);
  const uint32_t n = static_cast<uint32_t>(corpus.NumSentences());
  ShardedKokoIndex::Options uneven;
  uneven.boundaries = {0, 3, 3, n - 1, n};  // includes an empty shard
  std::vector<std::unique_ptr<ShardedKokoIndex>> builds;
  builds.push_back(ShardedKokoIndex::Build(corpus, 4));
  builds.push_back(ShardedKokoIndex::Build(corpus, uneven));
  for (size_t b = 0; b < builds.size(); ++b) {
    const ShardedKokoIndex& built = *builds[b];
    std::string path = ::testing::TempDir() + "/sharded_index_stats_" +
                       std::to_string(b) + ".bin";
    ASSERT_TRUE(built.Save(path).ok());
    for (LoadMode mode : {LoadMode::kMap, LoadMode::kCopy}) {
      ShardedKokoIndex::LoadOptions options;
      options.mode = mode;
      auto loaded = ShardedKokoIndex::Load(path, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      ASSERT_EQ((*loaded)->num_shards(), built.num_shards());
      for (size_t i = 0; i < built.num_shards(); ++i) {
        const std::string context =
            "build " + std::to_string(b) + " shard " + std::to_string(i) +
            (mode == LoadMode::kMap ? " kMap" : " kCopy");
        const KokoIndex::Stats& want = built.shard(i).stats();
        const KokoIndex::Stats& got = (*loaded)->shard(i).stats();
        EXPECT_EQ(got.num_sentences, want.num_sentences) << context;
        EXPECT_EQ(got.num_tokens, want.num_tokens) << context;
        EXPECT_EQ(got.num_entities, want.num_entities) << context;
        EXPECT_EQ(got.pl_trie_nodes, want.pl_trie_nodes) << context;
        EXPECT_EQ(got.pos_trie_nodes, want.pos_trie_nodes) << context;
      }
      EXPECT_EQ((*loaded)->stats().num_sentences, built.stats().num_sentences);
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedKokoIndexTest, MmapLoadOutlivesFileRemoval) {
  // POSIX mapping semantics the zero-copy path relies on: once mapped,
  // the pages stay valid even after the file is unlinked — the index must
  // keep answering queries for its whole lifetime.
  AnnotatedCorpus corpus = MomentsCorpus(40, 78);
  auto built = ShardedKokoIndex::Build(corpus, 2);
  std::string path = ::testing::TempDir() + "/sharded_index_unlink_test.bin";
  ASSERT_TRUE(built->Save(path).ok());
  ShardedKokoIndex::LoadOptions options;
  options.mode = LoadMode::kMap;
  auto mapped = ShardedKokoIndex::Load(path, options);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  std::remove(path.c_str());
  for (const char* word : {"a", "delicious", "ate"}) {
    EXPECT_EQ(Concat(**mapped, WordPostings(word)),
              Concat(*built, WordPostings(word)))
        << word;
  }
}

TEST(ShardedKokoIndexTest, CorruptManifestExtentFailsLoadCleanly) {
  AnnotatedCorpus corpus = MomentsCorpus(30, 76);
  auto built = ShardedKokoIndex::Build(corpus, 2);
  std::string path = ::testing::TempDir() + "/sharded_index_corrupt_test.bin";
  ASSERT_TRUE(built->Save(path).ok());
  // Blow up the first shard's extent (u64 after the two range u32s of the
  // first manifest entry, 12 bytes past magic|version|count): Load must
  // reject it instead of seeking past the file.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(12 + 8);
  const uint64_t huge = ~uint64_t{0} / 2;
  file.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  file.close();
  auto loaded = ShardedKokoIndex::Load(path);
  EXPECT_FALSE(loaded.ok());
  // kMap must reject it the same way — the bogus extent may not slice a
  // sub-span past the mapping.
  ShardedKokoIndex::LoadOptions map_options;
  map_options.mode = LoadMode::kMap;
  auto mapped = ShardedKokoIndex::Load(path, map_options);
  EXPECT_FALSE(mapped.ok());
  std::remove(path.c_str());
}

TEST(ShardedKokoIndexTest, BytesAfterTheLastImageFailLoad) {
  // The manifest's extents account for every byte of the file, so a saved
  // file has exactly one form: anything appended is corruption.
  AnnotatedCorpus corpus = MomentsCorpus(30, 77);
  auto built = ShardedKokoIndex::Build(corpus, 2);
  std::string path = ::testing::TempDir() + "/sharded_index_trailing_test.bin";
  ASSERT_TRUE(built->Save(path).ok());
  std::vector<char> bytes = ReadImage(path);
  bytes.insert(bytes.end(), {0, 0, 0, 0});
  WriteImage(path, bytes);
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
    ShardedKokoIndex::LoadOptions options;
    options.mode = mode;
    auto loaded = ShardedKokoIndex::Load(path, options);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  std::remove(path.c_str());
}

TEST(ShardedKokoIndexTest, ManifestRangesMustStartAtZeroAndHoldTheirLists) {
  AnnotatedCorpus corpus = MomentsCorpus(40, 79);
  auto built = ShardedKokoIndex::Build(corpus, 2);
  const uint32_t split = built->shard_range(0).end;
  ASSERT_GT(split, 2u);
  std::string path = ::testing::TempDir() + "/sharded_index_ranges_test.bin";
  ASSERT_TRUE(built->Save(path).ok());
  const std::vector<char> image = ReadImage(path);
  auto expect_rejected = [&](const std::vector<char>& bytes,
                             const std::string& what) {
    WriteImage(path, bytes);
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
      ShardedKokoIndex::LoadOptions options;
      options.mode = mode;
      auto loaded = ShardedKokoIndex::Load(path, options);
      ASSERT_FALSE(loaded.ok()) << what;
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << what;
    }
  };
  // First range shifted off sid 0 (still contiguous with the second).
  {
    std::vector<char> bad = image;
    PatchU32(&bad, kManifestHeader, 1);
    expect_rejected(bad, "first range begins at 1");
  }
  // Boundary moved down: shard 0's lists now reach past its range's end.
  {
    std::vector<char> bad = image;
    PatchU32(&bad, kManifestHeader + 4, 1);
    PatchU32(&bad, kManifestHeader + kManifestEntry, 1);
    expect_rejected(bad, "boundary moved down");
  }
  // Boundary moved up: shard 1's lists now start below its range's begin.
  {
    std::vector<char> bad = image;
    PatchU32(&bad, kManifestHeader + 4, split + 1);
    PatchU32(&bad, kManifestHeader + kManifestEntry, split + 1);
    expect_rejected(bad, "boundary moved up");
  }
  // No shard at all: Build never writes such a file.
  {
    std::vector<char> bad = image;
    PatchU32(&bad, 8, 0);
    expect_rejected(bad, "zero shards");
  }
  // The untouched image still loads.
  WriteImage(path, image);
  EXPECT_TRUE(ShardedKokoIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(ShardedKokoIndexTest, CorruptImageFailsLoadCleanly) {
  // Byte-flip and truncation sweeps over a whole sharded file, in both
  // load modes: every damaged variant must load cleanly or fail with an
  // error — never crash or read outside the image (the suite runs under
  // ASan in CI) — and the two modes, which share one validate-then-alias
  // path, must agree. The one-shard input flips every byte of its shard's
  // extent: header, columns, dictionaries, CSR row lists, trie sections
  // and the packed sid lists (skip tables, widths, pads and block
  // payloads). A flip that happens to yield another valid image (a tid or
  // depth cell, a key byte) is indistinguishable without a checksum, so a
  // survivor must stay a structurally sound index whose lookups stay in
  // bounds and sorted.
  const struct {
    AnnotatedCorpus corpus;
    size_t k;
    size_t flip_stride;
  } inputs[] = {{MomentsCorpus(12, 80), 2, 97}, {PaperCorpus(), 1, 1}};
  for (const auto& [corpus, k, flip_stride] : inputs) {
    auto built = ShardedKokoIndex::Build(corpus, k);
    std::string path = ::testing::TempDir() + "/sharded_index_sweep_test.bin";
    ASSERT_TRUE(built->Save(path).ok());
    const std::vector<char> image = ReadImage(path);
    const size_t first_shard = kManifestHeader + k * kManifestEntry;
    auto load_both = [&](const std::string& what) {
      bool ok[2];
      for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
        ShardedKokoIndex::LoadOptions options;
        options.mode = mode;
        auto loaded = ShardedKokoIndex::Load(path, options);
        ok[mode == LoadMode::kMap] = loaded.ok();
        if (!loaded.ok()) continue;
        for (const char* word : {"a", "happy", "delicious", "zzz-absent"}) {
          const std::vector<uint32_t> sids = Concat(**loaded, WordSidIds(word));
          EXPECT_TRUE(std::is_sorted(sids.begin(), sids.end())) << what;
          (void)Concat(**loaded, WordPostings(word));
        }
        const std::vector<uint32_t> any =
            Concat(**loaded, PlPathSidIds(AnyPath()));
        EXPECT_TRUE(std::is_sorted(any.begin(), any.end())) << what;
        (void)Concat(**loaded, PlPathSidIds(DobjPath()));
        (void)Concat(**loaded, PlPathPostings(AnyPath()));
        (void)Concat(**loaded, PosPathPostings(VerbPath()));
        (void)Concat(**loaded, EntityText("grocery store"));
        (void)Concat(**loaded, AllEntities);
      }
      EXPECT_EQ(ok[0], ok[1]) << what;
      return ok[0];
    };
    for (size_t keep : {size_t{0}, size_t{11}, size_t{40}, first_shard + 12,
                        image.size() / 2, image.size() - 4, image.size() - 1}) {
      const auto end = image.begin() + static_cast<long>(keep);
      WriteImage(path, std::vector<char>(image.begin(), end));
      EXPECT_FALSE(load_both("K=" + std::to_string(k) + " truncated to " +
                             std::to_string(keep)));
    }
    // The last shard's image cut short, its manifest extent shrunk to
    // match: the manifest checks pass, the shard's own reads run out of
    // bytes, and that is a ParseError like any other corrupt image.
    {
      const size_t extent_at = kManifestHeader + (k - 1) * kManifestEntry + 8;
      uint64_t extent = 0;
      std::memcpy(&extent, image.data() + extent_at, sizeof(extent));
      const uint64_t cut = extent / 2 & ~uint64_t{3};
      std::vector<char> truncated(
          image.begin(), image.end() - static_cast<long>(extent - cut));
      std::memcpy(truncated.data() + extent_at, &cut, sizeof(cut));
      WriteImage(path, truncated);
      for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
        ShardedKokoIndex::LoadOptions options;
        options.mode = mode;
        auto loaded = ShardedKokoIndex::Load(path, options);
        ASSERT_FALSE(loaded.ok()) << "K=" << k;
        EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
            << "K=" << k << ": " << loaded.status().ToString();
      }
    }
    const size_t first_flip = k == 1 ? first_shard : 0;
    for (size_t at = first_flip; at < image.size(); at += flip_stride) {
      std::vector<char> corrupt = image;
      corrupt[at] = static_cast<char>(corrupt[at] ^ 0xff);
      WriteImage(path, corrupt);
      load_both("K=" + std::to_string(k) + " flip at " + std::to_string(at));
    }
    std::remove(path.c_str());
  }
}

TEST(ShardedKokoIndexTest, MmapLoadErrorsAreClean) {
  // Unmappable path and too-short files return errors, never abort.
  ShardedKokoIndex::LoadOptions options;
  options.mode = LoadMode::kMap;
  auto missing = ShardedKokoIndex::Load(
      ::testing::TempDir() + "/no_such_sharded.bin", options);
  EXPECT_FALSE(missing.ok());
  std::string path = ::testing::TempDir() + "/sharded_index_short.bin";
  for (size_t bytes :
       {size_t{0}, size_t{3}, size_t{6}, size_t{7}, size_t{11}}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    const char zeros[16] = {};
    out.write(zeros, static_cast<long>(bytes));
    out.close();
    EXPECT_FALSE(ShardedKokoIndex::Load(path, options).ok()) << bytes;
    EXPECT_FALSE(ShardedKokoIndex::Load(path).ok()) << bytes;
  }
  std::remove(path.c_str());
}

TEST(ShardedKokoIndexTest, ImageBytesMatchGolden) {
  // Pins the on-disk image byte for byte: a fixed, seeded 4-shard wiki
  // index must save to exactly the recorded size and FNV-1a 64 digest
  // (tests/golden/index_image.golden), whether it is saved straight from
  // the build or re-saved after a kCopy or kMap load.
  std::map<std::string, std::string> golden;
  {
    std::ifstream in(std::string(KOKO_GOLDEN_DIR) + "/index_image.golden");
    ASSERT_TRUE(in.good()) << "tests/golden/index_image.golden missing";
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key, value;
      fields >> key >> value;
      golden[key] = value;
    }
  }
  ASSERT_EQ(golden.count("bytes"), 1u);
  ASSERT_EQ(golden.count("fnv64"), 1u);

  Pipeline pipeline;
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(
      GenerateWikiArticles({.num_articles = 40, .seed = 3}));
  auto built = ShardedKokoIndex::Build(corpus, 4);
  const std::string path = ::testing::TempDir() + "/sharded_golden_image.bin";
  auto expect_golden = [&](const std::vector<char>& image,
                           const std::string& what) {
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(Fnv1a64(
                      std::string_view(image.data(), image.size()))));
    EXPECT_EQ(std::to_string(image.size()), golden["bytes"]) << what;
    EXPECT_EQ(std::string(digest), golden["fnv64"]) << what;
  };
  ASSERT_TRUE(built->Save(path).ok());
  const std::vector<char> image = ReadImage(path);
  expect_golden(image, "build -> Save");

  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
    const std::string what =
        mode == LoadMode::kCopy ? "kCopy -> Save" : "kMap -> Save";
    ShardedKokoIndex::LoadOptions options;
    options.mode = mode;
    auto loaded = ShardedKokoIndex::Load(path, options);
    ASSERT_TRUE(loaded.ok()) << what << ": " << loaded.status().ToString();
    const std::string resaved_path = path + ".resaved";
    ASSERT_TRUE((*loaded)->Save(resaved_path).ok()) << what;
    const std::vector<char> resaved = ReadImage(resaved_path);
    EXPECT_EQ(resaved, image) << what;
    expect_golden(resaved, what);
    std::remove(resaved_path.c_str());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace koko
