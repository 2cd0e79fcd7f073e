#include "index/koko_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "corpus/generators.h"
#include "index/path_lookup.h"
#include "index/sharded_index.h"
#include "nlp/pipeline.h"
#include "storage/serde.h"

namespace koko {
namespace {

// The two sentences of Example 3.1 (sid 0 and sid 1).
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

PathQuery MakePath(std::initializer_list<std::pair<const char*, const char*>> steps) {
  // Each step: {axis ("/" or "//"), label}; label resolution: dep > pos > word;
  // "*" = wildcard.
  PathQuery q;
  for (const auto& [axis, label] : steps) {
    PathStep step;
    step.axis = std::string(axis) == "/" ? PathStep::Axis::kChild
                                         : PathStep::Axis::kDescendant;
    std::string name = label;
    if (name != "*") {
      DepLabel dep;
      PosTag pos;
      if (ParseDepLabel(name, &dep)) {
        step.constraint.dep = dep;
      } else if (ParsePosTag(name, &pos)) {
        step.constraint.pos = pos;
      } else {
        step.constraint.word = name;
      }
    }
    q.steps.push_back(std::move(step));
  }
  return q;
}

TEST(KokoIndexTest, WordIndexExampleThreeTwo) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  // "ate" occurs at (0,1), (0,13), (1,1); the paper's table lists the two
  // root occurrences, our parser agrees on (1,1) root covering 0-12 depth 0.
  PostingList ate = index->LookupWord("ate");
  ASSERT_EQ(ate.size(), 3u);
  EXPECT_EQ(ate[0].sid, 0u);
  EXPECT_EQ(ate[0].tid, 1u);
  EXPECT_EQ(ate[0].left, 0u);
  EXPECT_EQ(ate[0].right, 16u);
  EXPECT_EQ(ate[0].depth, 0u);
  // (1,1): root of the second sentence spans 0-12 at depth 0 (Example 3.2).
  EXPECT_EQ(ate[2].sid, 1u);
  EXPECT_EQ(ate[2].tid, 1u);
  EXPECT_EQ(ate[2].left, 0u);
  EXPECT_EQ(ate[2].right, 12u);
  EXPECT_EQ(ate[2].depth, 0u);

  PostingList delicious = index->LookupWord("delicious");
  ASSERT_EQ(delicious.size(), 2u);
  // (1,3,3-3,2) per Example 3.2.
  EXPECT_EQ(delicious[1].sid, 1u);
  EXPECT_EQ(delicious[1].tid, 3u);
  EXPECT_EQ(delicious[1].left, 3u);
  EXPECT_EQ(delicious[1].right, 3u);
  EXPECT_EQ(delicious[1].depth, 2u);

  EXPECT_TRUE(index->LookupWord("zzz").empty());
}

TEST(KokoIndexTest, EntityIndexExampleThreeTwo) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  auto cheesecake = index->LookupEntityText("cheesecake");
  ASSERT_EQ(cheesecake.size(), 1u);
  EXPECT_EQ(cheesecake[0].sid, 1u);
  EXPECT_EQ(cheesecake[0].left, 4u);
  EXPECT_EQ(cheesecake[0].right, 4u);
  auto grocery = index->LookupEntityText("grocery store");
  ASSERT_EQ(grocery.size(), 1u);
  EXPECT_EQ(grocery[0].left, 10u);
  EXPECT_EQ(grocery[0].right, 11u);
  auto icecream = index->LookupEntityText("chocolate ice cream");
  ASSERT_EQ(icecream.size(), 1u);
  EXPECT_EQ(icecream[0].sid, 0u);
  EXPECT_EQ(icecream[0].left, 3u);
  EXPECT_EQ(icecream[0].right, 5u);
}

TEST(KokoIndexTest, HierarchyMergesEqualSiblings) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  // Example 3.3: both nn nodes under dobj merge into /root/dobj/nn whose
  // posting list holds "chocolate" and "ice".
  PathQuery path = MakePath({{"/", "root"}, {"/", "dobj"}, {"/", "nn"}});
  PostingList postings = index->LookupParseLabelPath(path);
  ASSERT_EQ(postings.size(), 2u);
  EXPECT_EQ(postings[0].tid, 3u);  // chocolate
  EXPECT_EQ(postings[1].tid, 4u);  // ice
}

TEST(KokoIndexTest, HierarchyRootPath) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  PostingList roots = index->LookupParseLabelPath(MakePath({{"/", "root"}}));
  ASSERT_EQ(roots.size(), 2u);  // both sentence roots share one trie node
  EXPECT_EQ(roots[0].depth, 0u);
  EXPECT_EQ(roots[1].depth, 0u);
}

TEST(KokoIndexTest, DescendantAxisAndWildcards) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  // //det finds determiners at any depth.
  PostingList det = index->LookupParseLabelPath(MakePath({{"//", "det"}}));
  EXPECT_GE(det.size(), 3u);
  // /root/*/nn: wildcard middle step.
  PostingList nn =
      index->LookupParseLabelPath(MakePath({{"/", "root"}, {"/", "*"}, {"/", "nn"}}));
  EXPECT_GE(nn.size(), 2u);
  // Absent path -> empty.
  EXPECT_TRUE(index
                  ->LookupParseLabelPath(
                      MakePath({{"/", "root"}, {"/", "root"}}))
                  .empty());
}

TEST(KokoIndexTest, PosHierarchy) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  PostingList verbs = index->LookupPosPath(MakePath({{"//", "verb"}}));
  EXPECT_GE(verbs.size(), 4u);  // ate, was, ate, ate, bought
  for (const Quintuple& q : verbs) {
    const Sentence& s = corpus.sentence(q.sid);
    EXPECT_EQ(s.tokens[q.tid].pos, PosTag::kVerb);
  }
}

TEST(KokoIndexTest, CompressionStats) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 400, .seed = 5});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = KokoIndex::Build(corpus);
  const auto& stats = index->stats();
  EXPECT_EQ(stats.num_tokens, corpus.NumTokens());
  // Merging must remove the overwhelming majority of tree nodes (the paper
  // reports >99.7%; the corpus here is smaller and more templated).
  EXPECT_GT(stats.PlCompression(), 0.95);
  EXPECT_GT(stats.PosCompression(), 0.95);
  EXPECT_LT(stats.pl_trie_nodes, stats.num_tokens / 20);
}

TEST(KokoIndexTest, HierarchyLookupMatchesBruteForce) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 200, .seed = 6});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = KokoIndex::Build(corpus);
  std::vector<PathQuery> paths = {
      MakePath({{"/", "root"}, {"/", "dobj"}}),
      MakePath({{"/", "root"}, {"/", "dobj"}, {"/", "amod"}}),
      MakePath({{"//", "pobj"}}),
      MakePath({{"/", "root"}, {"//", "det"}}),
      MakePath({{"/", "root"}, {"/", "*"}, {"/", "nn"}}),
  };
  for (const PathQuery& path : paths) {
    PostingList postings = index->LookupParseLabelPath(path);
    std::set<std::pair<uint32_t, uint32_t>> got;
    for (const Quintuple& q : postings) got.insert({q.sid, q.tid});
    std::set<std::pair<uint32_t, uint32_t>> want;
    for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
      for (int t : MatchPathInSentence(corpus.sentence(sid), path)) {
        want.insert({sid, static_cast<uint32_t>(t)});
      }
    }
    EXPECT_EQ(got, want) << path.ToString();
  }
}

TEST(KokoIndexTest, ParentChildConditionFromQuintuples) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  // §3.1: tp is parent of tc iff same sid, containment, depth+1.
  PostingList ate = index->LookupWord("ate");
  PostingList cream = index->LookupWord("cream");
  ASSERT_FALSE(ate.empty());
  ASSERT_FALSE(cream.empty());
  EXPECT_TRUE(IsParentOf(ate[0], cream[0]));
  EXPECT_FALSE(IsParentOf(cream[0], ate[0]));
  PostingList delicious = index->LookupWord("delicious");
  EXPECT_TRUE(IsAncestorOf(cream[0], delicious[0]));
  EXPECT_FALSE(IsParentOf(cream[0], delicious[0]));
}

// The v5 image is a shard's payload: the image-level cases below save a
// one-shard ShardedKokoIndex file, whose one image follows a manifest of
// magic | version | count | begin | end | u64 extent.
constexpr size_t kImageAt = 28;

std::string SaveOneShardFile(const AnnotatedCorpus& corpus,
                             const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(ShardedKokoIndex::Build(corpus, 1)->Save(path).ok());
  return path;
}

Result<std::unique_ptr<ShardedKokoIndex>> LoadFile(const std::string& path,
                                                   LoadMode mode) {
  ShardedKokoIndex::LoadOptions options;
  options.mode = mode;
  return ShardedKokoIndex::Load(path, options);
}

std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<long>(bytes.size()));
}

TEST(KokoIndexTest, OnlyVersionFiveLoads) {
  // The image version is a format tag, not a knob: any other version —
  // and an image without the "KIDX" magic — fails load with ParseError in
  // both modes, and the error names the one supported version.
  const std::string path =
      SaveOneShardFile(PaperCorpus(), "koko_index_version_test.bin");
  const std::vector<char> image = ReadFileBytes(path);
  for (uint32_t version : {1u, 2u, 3u, 4u, 6u}) {
    std::vector<char> other = image;
    std::memcpy(other.data() + kImageAt + 4, &version, sizeof(version));
    WriteFileBytes(path, other);
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
      auto loaded = LoadFile(path, mode);
      ASSERT_FALSE(loaded.ok()) << version;
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << version;
      EXPECT_NE(loaded.status().ToString().find("version 5"), std::string::npos)
          << loaded.status().ToString();
    }
  }
  std::vector<char> no_magic = image;
  no_magic[kImageAt] = 'Z';  // the magic's first byte is 'X'
  WriteFileBytes(path, no_magic);
  for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
    auto loaded = LoadFile(path, mode);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
  std::remove(path.c_str());
}

// Where the arrays of a v5 image sit: walks the sections the way the
// loader does and records each array's first-element offset and length.
struct ImageArray {
  size_t at = 0;
  size_t size = 0;
  uint32_t Get(const std::vector<char>& image, size_t i) const {
    uint32_t v;
    std::memcpy(&v, image.data() + at + 4 * i, sizeof(v));
    return v;
  }
  void Set(std::vector<char>* image, size_t i, uint32_t v) const {
    std::memcpy(image->data() + at + 4 * i, &v, sizeof(v));
  }
};

struct ImageMap {
  ImageArray w_sid, e_sid, e_type;
  ImageArray word_row_offsets, word_rows;
  ImageArray pl_parent;
};

ImageMap MapImage(const std::vector<char>& bytes) {
  const MemorySpan span(reinterpret_cast<const uint8_t*>(bytes.data()),
                        bytes.size());
  SpanReader reader(span, kImageAt);
  auto array = [&] {
    ImageArray a;
    a.at = reader.offset() + 4;
    auto view = reader.ReadU32Array();
    EXPECT_TRUE(view.ok());
    a.size = view.ok() ? view->size() : 0;
    return a;
  };
  auto skip_list = [&] {
    EXPECT_TRUE(reader.ReadU32().ok());
    for (int i = 0; i < 3; ++i) array();
    EXPECT_TRUE(reader.ReadPaddedBytes().ok());
  };
  auto dictionary = [&](ImageArray* row_offsets, ImageArray* rows) {
    array();
    EXPECT_TRUE(reader.ReadPaddedBytes().ok());
    *row_offsets = array();
    *rows = array();
  };
  ImageMap map;
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(reader.ReadU32().ok());
  map.w_sid = array();
  for (int i = 0; i < 4; ++i) array();
  map.e_sid = array();
  array();
  array();
  map.e_type = array();
  dictionary(&map.word_row_offsets, &map.word_rows);
  for (size_t i = 0; i + 1 < map.word_row_offsets.size; ++i) skip_list();
  ImageArray text_offsets, text_rows;
  dictionary(&text_offsets, &text_rows);
  for (int i = 0; i < 1 + kNumEntityTypes; ++i) skip_list();
  map.pl_parent = array();
  return map;
}

TEST(KokoIndexTest, CorruptColumnsAndRowListsFailLoad) {
  // Targeted negatives, one per validation rule of the column and CSR
  // sections: each damaged image fails load with a ParseError naming the
  // broken rule, in both modes, before anything is aliased.
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  const std::string path =
      SaveOneShardFile(corpus, "koko_index_sections_test.bin");
  const std::vector<char> image = ReadFileBytes(path);
  const ImageMap map = MapImage(image);
  const uint32_t num_w = static_cast<uint32_t>(index->stats().num_tokens);
  ASSERT_EQ(map.w_sid.size, num_w);
  ASSERT_GE(map.e_sid.size, 2u);
  ASSERT_GE(map.word_row_offsets.size, 3u);
  ASSERT_EQ(map.word_rows.size, num_w);
  ASSERT_GE(map.pl_parent.size, 2u);

  auto expect_rejected = [&](const std::vector<char>& bytes,
                             const std::string& rule) {
    WriteFileBytes(path, bytes);
    for (LoadMode mode : {LoadMode::kCopy, LoadMode::kMap}) {
      auto loaded = LoadFile(path, mode);
      ASSERT_FALSE(loaded.ok()) << rule;
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError) << rule;
      EXPECT_NE(loaded.status().message().find(rule), std::string::npos)
          << loaded.status().ToString();
    }
  };
  {
    std::vector<char> bad = image;
    map.word_row_offsets.Set(&bad, 1, map.word_row_offsets.Get(image, 2) + 1);
    expect_rejected(bad, "offsets decrease");
  }
  {
    std::vector<char> bad = image;
    map.word_row_offsets.Set(&bad, map.word_row_offsets.size - 1, num_w + 1);
    expect_rejected(bad, "offsets do not end at the column end");
  }
  {
    std::vector<char> bad = image;
    map.word_rows.Set(&bad, 0, num_w);
    expect_rejected(bad, "row id out of range");
  }
  {
    // Swap the first two rows of the first word owning two or more.
    size_t word = 0;
    while (map.word_row_offsets.Get(image, word + 1) -
               map.word_row_offsets.Get(image, word) <
           2) {
      ++word;
    }
    const uint32_t first = map.word_row_offsets.Get(image, word);
    std::vector<char> bad = image;
    map.word_rows.Set(&bad, first, map.word_rows.Get(image, first + 1));
    map.word_rows.Set(&bad, first + 1, map.word_rows.Get(image, first));
    expect_rejected(bad, "row list not ascending");
  }
  {
    std::vector<char> bad = image;
    map.pl_parent.Set(&bad, 1, 1);
    expect_rejected(bad, "trie parent not below its node");
  }
  {
    std::vector<char> bad = image;
    map.e_type.Set(&bad, 0, kNumEntityTypes);
    expect_rejected(bad, "entity type out of range");
  }
  {
    std::vector<char> bad = image;
    map.e_sid.Set(&bad, 0, map.e_sid.Get(image, map.e_sid.size - 1) + 1);
    expect_rejected(bad, "E rows not in sid order");
  }
  {
    std::vector<char> bad = image;
    map.w_sid.Set(&bad, 0, map.w_sid.Get(image, num_w - 1) + 1);
    expect_rejected(bad, "W rows not in sid order");
  }
  // The untouched image still loads.
  WriteFileBytes(path, image);
  EXPECT_TRUE(LoadFile(path, LoadMode::kCopy).ok());
  std::remove(path.c_str());
}

TEST(KokoIndexTest, BlockCompressedSidCachePersistence) {
  Pipeline pipeline;
  auto docs = GenerateHappyMoments({.num_moments = 200, .seed = 7});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = KokoIndex::Build(corpus);

  // Size assertion: across every distinct word, the resident block layout
  // (delta payload + skip table) must beat the decoded u32 layout (sorted
  // unique sids -> small gaps; one 8-byte skip entry per 128 sids).
  std::set<std::string> words;
  for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
    for (const Token& token : corpus.sentence(sid).tokens) {
      words.insert(token.text);
    }
  }
  size_t block_bytes = 0;
  size_t raw_bytes = 0;
  for (const std::string& word : words) {
    const BlockList* sids = index->WordSids(word);
    ASSERT_NE(sids, nullptr) << word;
    // Re-packing the decoded sids reproduces the stored list byte for
    // byte: the encoding is canonical.
    EXPECT_EQ(BlockList::FromSidList(sids->Decode()), *sids) << word;
    block_bytes += sids->bytes().size() + sids->skip_first().raw_size() +
                   sids->skip_offset().raw_size() +
                   sids->skip_width().raw_size();
    raw_bytes += sids->size() * sizeof(uint32_t);
  }
  EXPECT_LT(block_bytes, raw_bytes);

  // Round trip: the loaded index restores byte-identical block lists.
  const std::string path =
      SaveOneShardFile(corpus, "koko_index_delta_test.bin");
  auto file = LoadFile(path, LoadMode::kCopy);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const KokoIndex& loaded = (*file)->shard(0);
  for (const std::string& word : words) {
    const BlockList* want = index->WordSids(word);
    const BlockList* got = loaded.WordSids(word);
    ASSERT_NE(got, nullptr) << word;
    EXPECT_EQ(*got, *want) << word;
  }
  PathQuery p = MakePath({{"/", "root"}, {"//", "dobj"}});
  EXPECT_EQ(loaded.PlPathSids(p), index->PlPathSids(p));
  EXPECT_EQ(loaded.PosPathSids(MakePath({{"//", "verb"}})),
            index->PosPathSids(MakePath({{"//", "verb"}})));
  std::remove(path.c_str());
}

TEST(PathLookupTest, DecompositionExampleFourTwo) {
  // d = //verb[text="ate"]/dobj//"delicious" decomposes into
  // PL //*/dobj//*, POS //verb/*//*, word //"ate"/*//"delicious".
  PathQuery d;
  {
    PathStep s1;
    s1.axis = PathStep::Axis::kDescendant;
    s1.constraint.pos = PosTag::kVerb;
    s1.constraint.word = "ate";
    PathStep s2;
    s2.axis = PathStep::Axis::kChild;
    s2.constraint.dep = DepLabel::kDobj;
    PathStep s3;
    s3.axis = PathStep::Axis::kDescendant;
    s3.constraint.word = "delicious";
    d.steps = {s1, s2, s3};
  }
  PathQuery pl = ProjectParseLabelPath(d);
  EXPECT_EQ(pl.ToString(), "//*/dobj//*");
  PathQuery pos = ProjectPosPath(d);
  EXPECT_EQ(pos.ToString(), "//*[@pos=\"verb\"]/*//*");
  EXPECT_FALSE(DecomposePath(d).unconstrained());
  EXPECT_TRUE(DecomposePath(ProjectPosPath(pl)).unconstrained());
}

TEST(PathLookupTest, JoinExampleFourFour) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  // //verb[text="ate"]/dobj//"delicious" — Example 4.4's join returns
  // {(1,3,3-3,2), (0,9,9-9,3)} (the two "delicious" tokens).
  PathQuery d;
  {
    PathStep s1;
    s1.axis = PathStep::Axis::kDescendant;
    s1.constraint.pos = PosTag::kVerb;
    s1.constraint.word = "ate";
    PathStep s2;
    s2.axis = PathStep::Axis::kChild;
    s2.constraint.dep = DepLabel::kDobj;
    PathStep s3;
    s3.axis = PathStep::Axis::kDescendant;
    s3.constraint.word = "delicious";
    d.steps = {s1, s2, s3};
  }
  PathLookupResult result = KokoPathLookup(*index, d);
  EXPECT_FALSE(result.unconstrained);
  EXPECT_TRUE(result.exact_last);
  std::set<std::pair<uint32_t, uint32_t>> got;
  for (const Quintuple& q : result.postings) got.insert({q.sid, q.tid});
  EXPECT_EQ(got, (std::set<std::pair<uint32_t, uint32_t>>{{0, 9}, {1, 3}}));
}

TEST(PathLookupTest, CompletenessProperty) {
  // DPLI candidates must be a superset of the true matches (§4.2.2).
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 80, .seed = 21});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = KokoIndex::Build(corpus);
  std::vector<PathQuery> paths = {
      MakePath({{"//", "verb"}, {"/", "dobj"}}),
      MakePath({{"//", "verb"}, {"/", "prep"}, {"/", "pobj"}}),
      MakePath({{"/", "root"}, {"//", "born"}}),
      MakePath({{"//", "nsubj"}}),
  };
  for (const PathQuery& path : paths) {
    PathLookupResult result = KokoPathLookup(*index, path);
    ASSERT_FALSE(result.unconstrained);
    std::set<std::pair<uint32_t, uint32_t>> candidates;
    for (const Quintuple& q : result.postings) candidates.insert({q.sid, q.tid});
    for (uint32_t sid = 0; sid < corpus.NumSentences(); ++sid) {
      for (int t : MatchPathInSentence(corpus.sentence(sid), path)) {
        EXPECT_TRUE(candidates.count({sid, static_cast<uint32_t>(t)}) > 0)
            << "missing true binding for " << path.ToString() << " at sid="
            << sid << " tid=" << t;
      }
    }
  }
}

TEST(PathLookupTest, SidSemiJoinMatchesQuintupleProjection) {
  // Without a filter, the sid lookup narrows the cross-index joins to the
  // path's word lists; its sid set must stay exactly the projection of the
  // unfiltered quintuple-level lookup.
  Pipeline pipeline;
  auto docs = GenerateWikiArticles({.num_articles = 60, .seed = 22});
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(docs);
  auto index = KokoIndex::Build(corpus);
  std::vector<PathQuery> paths = {
      MakePath({{"//", "verb"}, {"/", "dobj"}}),          // POS + PL
      MakePath({{"//", "verb"}, {"//", "born"}}),         // POS + word
      MakePath({{"/", "root"}, {"//", "the"}}),           // PL + word
      MakePath({{"//", "verb"}, {"/", "prep"}, {"//", "the"}}),  // all three
      MakePath({{"//", "ate"}}),                          // word only
      MakePath({{"//", "verb"}, {"//", "zzz-absent"}}),   // absent word
  };
  for (const PathQuery& path : paths) {
    PathSidLookupResult fast = KokoPathSidLookup(*index, path, nullptr);
    PathLookupResult full = KokoPathLookup(*index, path);
    ASSERT_EQ(fast.unconstrained, full.unconstrained) << path.ToString();
    EXPECT_EQ(fast.sids, SidList::FromSorted(SidsOfPostings(full.postings)))
        << path.ToString();
  }
}

TEST(PathLookupTest, SidFilteredLookupsMatchUnfiltered) {
  // The filter push-down (LookupWord/LookupParseLabelPath/LookupPosPath
  // and PlPathSids/PosPathSids with a sid filter) must keep exactly the
  // postings (sids) whose sid is in the filter, including a filter that
  // drops everything.
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  SidList only_second = SidList::FromSorted({1});
  PostingList all = index->LookupWord("ate");
  PostingList filtered = index->LookupWord("ate", &only_second);
  PostingList want;
  for (const Quintuple& q : all) {
    if (q.sid == 1) want.push_back(q);
  }
  EXPECT_EQ(filtered, want);
  ASSERT_FALSE(filtered.empty());
  SidList none;
  EXPECT_TRUE(index->LookupWord("ate", &none).empty());
  PathQuery verbs = MakePath({{"//", "verb"}});
  PostingList pos_all = index->LookupPosPath(verbs);
  PostingList pos_filtered = index->LookupPosPath(verbs, &only_second);
  PostingList pos_want;
  for (const Quintuple& q : pos_all) {
    if (q.sid == 1) pos_want.push_back(q);
  }
  EXPECT_EQ(pos_filtered, pos_want);
  EXPECT_TRUE(index->LookupPosPath(verbs, &none).empty());
  EXPECT_EQ(index->PosPathSids(verbs, &only_second),
            Intersect(index->PosPathSids(verbs), only_second));
  EXPECT_TRUE(index->PosPathSids(verbs, &none).empty());
  PathQuery roots = MakePath({{"/", "root"}});
  EXPECT_EQ(index->PlPathSids(roots, &only_second), only_second);
  EXPECT_TRUE(index->PlPathSids(roots, &none).empty());
}

TEST(PathLookupTest, AbsentPathShortCircuits) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  PathQuery q = MakePath({{"/", "root"}, {"/", "xcomp"}, {"/", "xcomp"}});
  PathLookupResult result = KokoPathLookup(*index, q);
  EXPECT_FALSE(result.unconstrained);
  EXPECT_TRUE(result.postings.empty());
}

TEST(PathLookupTest, AllWildcardIsUnconstrained) {
  AnnotatedCorpus corpus = PaperCorpus();
  auto index = KokoIndex::Build(corpus);
  PathQuery q = MakePath({{"//", "*"}});
  EXPECT_TRUE(KokoPathLookup(*index, q).unconstrained);
}

}  // namespace
}  // namespace koko
