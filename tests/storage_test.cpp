#include <gtest/gtest.h>

#include <map>

#include "nlp/pipeline.h"
#include "storage/btree.h"
#include "storage/doc_store.h"
#include "storage/serde.h"
#include "storage/table.h"
#include "util/rng.h"

namespace koko {
namespace {

TEST(BTreeTest, InsertAndFind) {
  BPlusTree<std::string, uint32_t> tree;
  tree.Insert("b", 2);
  tree.Insert("a", 1);
  tree.Insert("b", 3);
  ASSERT_NE(tree.Find("b"), nullptr);
  EXPECT_EQ(*tree.Find("b"), (std::vector<uint32_t>{2, 3}));
  EXPECT_EQ(tree.Find("c"), nullptr);
  EXPECT_EQ(tree.NumValues(), 3u);
  EXPECT_EQ(tree.NumKeys(), 2u);
}

TEST(BTreeTest, SplitsKeepOrder) {
  BPlusTree<uint64_t, uint32_t> tree;
  for (uint64_t i = 0; i < 2000; ++i) tree.Insert(i * 7 % 2000, static_cast<uint32_t>(i));
  uint64_t prev = 0;
  bool first = true;
  size_t count = 0;
  tree.ScanAll([&](const uint64_t& key, const std::vector<uint32_t>&) {
    if (!first) EXPECT_GT(key, prev);
    prev = key;
    first = false;
    ++count;
    return true;
  });
  EXPECT_EQ(count, 2000u);
}

TEST(BTreeTest, ScanEarlyStop) {
  BPlusTree<uint64_t, uint32_t> tree;
  for (uint64_t i = 0; i < 100; ++i) tree.Insert(i, 0);
  int visits = 0;
  tree.ScanAll([&](const uint64_t&, const std::vector<uint32_t>&) {
    return ++visits < 5;
  });
  EXPECT_EQ(visits, 5);
}

TEST(BTreeTest, FuzzAgainstStdMap) {
  BPlusTree<std::string, uint32_t> tree;
  std::map<std::string, std::vector<uint32_t>> reference;
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    std::string key = "k" + std::to_string(rng.Uniform(400));
    uint32_t value = static_cast<uint32_t>(rng.Uniform(1000));
    tree.Insert(key, value);
    reference[key].push_back(value);
  }
  for (const auto& [key, values] : reference) {
    const auto* found = tree.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(*found, values) << key;
  }
  EXPECT_EQ(tree.NumKeys(), reference.size());
  // Full-order agreement.
  auto it = reference.begin();
  tree.ScanAll([&](const std::string& key, const std::vector<uint32_t>& values) {
    EXPECT_EQ(key, it->first);
    EXPECT_EQ(values, it->second);
    ++it;
    return true;
  });
}

TEST(BTreeTest, MemoryUsagePositive) {
  BPlusTree<std::string, uint32_t> tree;
  size_t empty = tree.MemoryUsage();
  for (int i = 0; i < 500; ++i) tree.Insert("key" + std::to_string(i), 1);
  EXPECT_GT(tree.MemoryUsage(), empty);
}

TEST(TableTest, AppendAndGet) {
  Table t("test", {{"name", ColumnType::kString}, {"age", ColumnType::kInt64}});
  ASSERT_TRUE(t.AppendRow({std::string("anna"), int64_t{30}}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("bob"), int64_t{25}}).ok());
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.GetString(0, 0), "anna");
  EXPECT_EQ(t.GetInt(1, 1), 25);
  EXPECT_EQ(t.ColumnIndex("age"), 1);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
}

TEST(TableTest, RejectsBadRows) {
  Table t("test", {{"a", ColumnType::kInt64}});
  EXPECT_FALSE(t.AppendRow({std::string("wrong type")}).ok());
  EXPECT_FALSE(t.AppendRow({int64_t{1}, int64_t{2}}).ok());
}

TEST(TableTest, IndexLookup) {
  Table t("test", {{"word", ColumnType::kString}, {"sid", ColumnType::kInt64}});
  ASSERT_TRUE(t.CreateIndex("by_word", {"word"}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("ate"), int64_t{0}}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("pie"), int64_t{0}}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("ate"), int64_t{1}}).ok());
  auto rows = t.IndexLookup("by_word", {std::string("ate")});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<uint32_t>{0, 2}));
  auto missing = t.IndexLookup("by_word", {std::string("zzz")});
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing->empty());
  EXPECT_FALSE(t.IndexLookup("no_index", {std::string("x")}).ok());
}

TEST(TableTest, IndexBuiltAfterRowsExist) {
  Table t("test", {{"k", ColumnType::kInt64}});
  for (int64_t i = 0; i < 50; ++i) ASSERT_TRUE(t.AppendRow({i % 5}).ok());
  ASSERT_TRUE(t.CreateIndex("by_k", {"k"}).ok());
  auto rows = t.IndexLookup("by_k", {int64_t{3}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 10u);
}

TEST(TableTest, CompositeIndexLookup) {
  Table t("test", {{"a", ColumnType::kString}, {"b", ColumnType::kInt64}});
  ASSERT_TRUE(t.CreateIndex("ab", {"a", "b"}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("x"), int64_t{1}}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("x"), int64_t{2}}).ok());
  ASSERT_TRUE(t.AppendRow({std::string("y"), int64_t{1}}).ok());
  auto exact = t.IndexLookup("ab", {std::string("x"), int64_t{2}});
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(*exact, (std::vector<uint32_t>{1}));
}

TEST(TableTest, KeyEncodingPreservesIntOrder) {
  std::string neg = Table::EncodeKey({int64_t{-5}});
  std::string zero = Table::EncodeKey({int64_t{0}});
  std::string pos = Table::EncodeKey({int64_t{5}});
  EXPECT_LT(neg, zero);
  EXPECT_LT(zero, pos);
}

TEST(SerdeTest, PrimitivesRoundTrip) {
  std::vector<uint8_t> bytes;
  ByteWriter w(&bytes);
  w.WriteU8(7);
  w.WriteU16(0xbeef);
  w.WriteU32(1234567);
  w.WriteU64(0xdeadbeefcafeULL);
  w.WriteI64(-42);
  w.WriteString("koko");

  SpanReader r(MemorySpan(bytes.data(), bytes.size()));
  EXPECT_EQ(*r.ReadU8(), 7);
  EXPECT_EQ(*r.ReadU16(), 0xbeef);
  EXPECT_EQ(*r.ReadU32(), 1234567u);
  EXPECT_EQ(*r.ReadU64(), 0xdeadbeefcafeULL);
  EXPECT_EQ(static_cast<int64_t>(*r.ReadU64()), -42);
  EXPECT_EQ(*r.ReadString(), "koko");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerdeTest, TruncatedInputFails) {
  const std::string bytes = "ab";
  SpanReader r(MemorySpan(reinterpret_cast<const uint8_t*>(bytes.data()),
                          bytes.size()));
  EXPECT_FALSE(r.ReadU64().ok());
}

TEST(DocStoreTest, DocumentRoundTrip) {
  Pipeline pipeline;
  RawDocument raw{"t", "Anna ate some delicious cheesecake. She was happy."};
  Document doc = pipeline.AnnotateDocument(raw, 3);
  std::string blob = DocumentStore::SerializeDocument(doc);
  auto restored = DocumentStore::DeserializeDocument(blob);
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->sentences.size(), doc.sentences.size());
  for (size_t i = 0; i < doc.sentences.size(); ++i) {
    const Sentence& a = doc.sentences[i];
    const Sentence& b = restored->sentences[i];
    ASSERT_EQ(a.size(), b.size());
    for (int t = 0; t < a.size(); ++t) {
      EXPECT_EQ(a.tokens[t].text, b.tokens[t].text);
      EXPECT_EQ(a.tokens[t].pos, b.tokens[t].pos);
      EXPECT_EQ(a.tokens[t].label, b.tokens[t].label);
      EXPECT_EQ(a.tokens[t].head, b.tokens[t].head);
      EXPECT_EQ(a.tokens[t].etype, b.tokens[t].etype);
    }
    EXPECT_EQ(a.entities.size(), b.entities.size());
    EXPECT_EQ(a.subtree_left, b.subtree_left);   // recomputed on load
    EXPECT_EQ(a.depth, b.depth);
  }
}

TEST(DocStoreTest, BlobBytesArePinned) {
  // The round trip above still passes if both sides change the layout
  // together; this pins the blob's exact bytes.
  Document doc;
  doc.id = 7;
  doc.title = "t";
  Sentence& s = doc.sentences.emplace_back();
  s.tokens = {{"Ann", PosTag::kPropn, DepLabel::kNsubj, 1, EntityType::kPerson, 0},
              {"ran", PosTag::kVerb, DepLabel::kRoot, -1, EntityType::kNone, -1}};
  s.entities = {{0, 0, EntityType::kPerson}};
  const std::string blob = DocumentStore::SerializeDocument(doc);
  std::string hex;
  for (char c : blob) {
    static const char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[static_cast<uint8_t>(c) >> 4]);
    hex.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  EXPECT_EQ(hex,
            "07000000" "01000000" "74"  // id, title
            "01000000" "02000000"       // sentence count, token count
            // text, pos, label, head, etype, entity id
            "03000000" "416e6e" "01" "01" "0100000000000000" "02"
            "0000000000000000"
            "03000000" "72616e" "02" "00" "ffffffffffffffff" "00"
            "ffffffffffffffff"
            "01000000"                  // entity count
            "0000000000000000" "0000000000000000" "02");  // begin, end, type
  EXPECT_TRUE(DocumentStore::DeserializeDocument(blob).ok());
}

TEST(DocStoreTest, CorpusStoreRoundTrip) {
  Pipeline pipeline;
  std::vector<RawDocument> raw = {{"a", "I ate pie."}, {"b", "Anna was happy."}};
  AnnotatedCorpus corpus = pipeline.AnnotateCorpus(raw);
  DocumentStore store = DocumentStore::FromCorpus(corpus);
  EXPECT_EQ(store.NumDocs(), 2u);
  Document d1 = store.LoadDocument(1);
  EXPECT_EQ(d1.sentences.size(), corpus.docs[1].sentences.size());
  EXPECT_EQ(store.LoadDocument(0).sentences[0].Text(),
            corpus.docs[0].sentences[0].Text());
}

}  // namespace
}  // namespace koko
