#include "index/sid_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace koko {
namespace {

SidList Make(std::vector<uint32_t> ids) {
  return SidList::FromUnsorted(std::move(ids));
}

std::vector<uint32_t> ReferenceIntersect(const SidList& a, const SidList& b) {
  std::vector<uint32_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

SidList RandomList(Rng* rng, size_t count, uint32_t universe) {
  std::vector<uint32_t> ids;
  ids.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<uint32_t>(rng->Next() % universe));
  }
  return SidList::FromUnsorted(std::move(ids));
}

TEST(SidListTest, FromUnsortedSortsAndDedups) {
  SidList list = Make({5, 1, 3, 1, 5, 5, 2});
  EXPECT_EQ(list.ids(), (std::vector<uint32_t>{1, 2, 3, 5}));
  EXPECT_EQ(list.CountSids(), 4u);
}

TEST(SidListTest, AppendDropsRepeatsOfTail) {
  SidList list;
  for (uint32_t sid : {1u, 1u, 2u, 2u, 2u, 7u}) list.Append(sid);
  EXPECT_EQ(list.ids(), (std::vector<uint32_t>{1, 2, 7}));
}

TEST(SidListTest, Contains) {
  SidList list = Make({2, 4, 8});
  EXPECT_TRUE(list.Contains(4));
  EXPECT_FALSE(list.Contains(5));
  EXPECT_FALSE(SidList().Contains(0));
}

TEST(GallopToTest, Boundaries) {
  std::vector<uint32_t> xs = {2, 4, 6, 8, 10, 12, 14, 16};
  const size_t n = xs.size();
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 1), 0u);    // before first
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 2), 0u);    // exact first
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 3), 1u);    // between
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 16), 7u);   // exact last
  EXPECT_EQ(GallopTo(xs.data(), n, 0, 17), 8u);   // past last
  EXPECT_EQ(GallopTo(xs.data(), n, 3, 8), 3u);    // lo already at answer
  EXPECT_EQ(GallopTo(xs.data(), n, 3, 6), 3u);    // key behind lo -> lo
  EXPECT_EQ(GallopTo(xs.data(), n, 8, 1), 8u);    // lo == n
  EXPECT_EQ(GallopTo(xs.data(), 0, 0, 5), 0u);    // empty array
}

TEST(GallopToTest, MatchesLowerBoundExhaustively) {
  // Every (lo, key) pair over a list with runs and gaps.
  std::vector<uint32_t> xs = {0, 1, 1 + 2, 7, 9, 100, 101, 102, 4000};
  for (size_t lo = 0; lo <= xs.size(); ++lo) {
    for (uint32_t key = 0; key <= 4002; ++key) {
      size_t expected = static_cast<size_t>(
          std::lower_bound(xs.begin() + static_cast<long>(lo), xs.end(), key) -
          xs.begin());
      ASSERT_EQ(GallopTo(xs.data(), xs.size(), lo, key), expected)
          << "lo=" << lo << " key=" << key;
    }
  }
}

TEST(IntersectTest, EmptyLists) {
  EXPECT_TRUE(Intersect(SidList(), SidList()).empty());
  EXPECT_TRUE(Intersect(SidList(), Make({1, 2, 3})).empty());
  EXPECT_TRUE(Intersect(Make({1, 2, 3}), SidList()).empty());
}

TEST(IntersectTest, Disjoint) {
  EXPECT_TRUE(Intersect(Make({1, 3, 5}), Make({2, 4, 6})).empty());
}

TEST(IntersectTest, Subset) {
  SidList small = Make({10, 30});
  SidList large = Make({0, 10, 20, 30, 40});
  EXPECT_EQ(Intersect(small, large).ids(), (std::vector<uint32_t>{10, 30}));
  EXPECT_EQ(Intersect(large, small).ids(), (std::vector<uint32_t>{10, 30}));
}

TEST(IntersectTest, Identical) {
  SidList list = Make({1, 2, 3, 4});
  EXPECT_EQ(Intersect(list, list).ids(), list.ids());
}

TEST(IntersectTest, SkewedSizesTakeGallopPath) {
  // |large| / |small| far beyond kGallopSkewRatio: exercises the galloping
  // advance, including multi-step probes past long runs.
  std::vector<uint32_t> big;
  for (uint32_t i = 0; i < 10000; ++i) big.push_back(i * 3);
  SidList large = SidList::FromSorted(big);
  SidList small = Make({0, 3, 4, 29997, 29999, 50000});
  EXPECT_EQ(Intersect(small, large).ids(),
            (std::vector<uint32_t>{0, 3, 29997}));
  EXPECT_EQ(Intersect(large, small).ids(),
            (std::vector<uint32_t>{0, 3, 29997}));
}

TEST(IntersectTest, RandomizedAgainstReference) {
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    // Vary skew from 1:1 to ~1:200 so both merge strategies are hit.
    size_t na = 1 + rng.Next() % 50;
    size_t nb = 1 + rng.Next() % 2000;
    SidList a = RandomList(&rng, na, 300);
    SidList b = RandomList(&rng, nb, 3000);
    EXPECT_EQ(Intersect(a, b).ids(), ReferenceIntersect(a, b));
    EXPECT_EQ(Intersect(b, a).ids(), ReferenceIntersect(a, b));
  }
}

// ---- BlockList: the block-compressed resident representation ---------------

TEST(BlockListTest, RoundTripEdgeSizes) {
  // Empty list, single sid, exactly one block, one-past-a-block-boundary,
  // several blocks with a partial tail.
  const size_t kB = BlockList::kBlockSids;
  for (size_t n : {size_t{0}, size_t{1}, kB - 1, kB, kB + 1, 3 * kB, 3 * kB + 7}) {
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < n; ++i) ids.push_back(static_cast<uint32_t>(i * 3));
    SidList list = SidList::FromSorted(ids);
    BlockList blocks = BlockList::FromSidList(list);
    EXPECT_EQ(blocks.CountSids(), n);
    EXPECT_EQ(blocks.NumBlocks(), (n + kB - 1) / kB);
    EXPECT_EQ(blocks.Decode(), list) << n;
  }
}

TEST(BlockListTest, AppendMatchesFromSidListAndDropsRepeats) {
  BlockListBuilder builder;
  for (uint32_t sid : {1u, 1u, 2u, 2u, 2u, 7u, 7u, 2000000u}) builder.Append(sid);
  BlockList appended = builder.Finish();
  EXPECT_EQ(appended, BlockList::FromSidList(SidList::FromSorted({1, 2, 7, 2000000})));
  EXPECT_EQ(appended.Decode().ids(), (std::vector<uint32_t>{1, 2, 7, 2000000}));
}

TEST(BlockListTest, ContainsIncludingBlockBoundaries) {
  const size_t kB = BlockList::kBlockSids;
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < 3 * kB + 5; ++i) ids.push_back(static_cast<uint32_t>(i * 2));
  BlockList blocks = BlockList::FromSidList(SidList::FromSorted(ids));
  EXPECT_FALSE(BlockList().Contains(0));
  for (uint32_t sid : ids) EXPECT_TRUE(blocks.Contains(sid)) << sid;
  // First sid of each block (skip-table hits) and their neighbours.
  for (size_t b = 0; b < blocks.NumBlocks(); ++b) {
    const uint32_t first = blocks.skip_first()[b];
    EXPECT_TRUE(blocks.Contains(first));
    EXPECT_FALSE(blocks.Contains(first + 1));  // ids are all even
  }
  EXPECT_FALSE(blocks.Contains(ids.back() + 2));
}

TEST(BlockListTest, CompressesDenseListsBelowRawLayout) {
  // 10k consecutive-ish sids: ~1 payload byte per sid + 8 skip bytes per
  // 128 sids, vs 4 raw bytes per sid decoded.
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 10000; ++i) ids.push_back(i * 2);
  SidList list = SidList::FromSorted(ids);
  BlockList blocks = BlockList::FromSidList(list);
  EXPECT_LT(blocks.MemoryUsage() * 2, list.MemoryUsage());
}

TEST(BlockListTest, InPlaceIntersectMatchesDecoded) {
  Rng rng(123);
  for (int round = 0; round < 100; ++round) {
    const size_t na = 1 + rng.Next() % 600;
    const size_t nb = 1 + rng.Next() % 3000;
    SidList a = RandomList(&rng, na, 2000);
    SidList b = RandomList(&rng, nb, 8000);
    BlockList ab = BlockList::FromSidList(a);
    BlockList bb = BlockList::FromSidList(b);
    const SidList want = Intersect(a, b);
    EXPECT_EQ(Intersect(a, bb), want) << round;      // decoded x blocks
    EXPECT_EQ(Intersect(b, ab), want) << round;      // larger decoded side
    EXPECT_EQ(Intersect(ab, b), want) << round;      // blocks x decoded
    EXPECT_EQ(Intersect(ab, bb), want) << round;     // blocks x blocks
    EXPECT_EQ(Intersect(bb, ab), want) << round;
    // The two-view dispatch reaches the same kernels for every form pair.
    for (SidSetView x : {SidSetView(&a), SidSetView(&ab)}) {
      for (SidSetView y : {SidSetView(&b), SidSetView(&bb)}) {
        EXPECT_EQ(Intersect(x, y), want) << round;
        EXPECT_EQ(Intersect(y, x), want) << round;
      }
    }
  }
  // Degenerate shapes.
  BlockList empty;
  EXPECT_TRUE(Intersect(SidList(), empty).empty());
  EXPECT_TRUE(Intersect(Make({1, 2}), empty).empty());
  EXPECT_TRUE(Intersect(empty, Make({1, 2})).empty());
  // The uint32 maximum must not wrap the skip-table gallop.
  BlockList max_list = BlockList::FromSidList(SidList::FromSorted({5, 0xffffffffu}));
  EXPECT_EQ(Intersect(Make({0xffffffffu}), max_list).ids(),
            (std::vector<uint32_t>{0xffffffffu}));
}

TEST(BlockListTest, IntersectAllViewsMixesDecodedAndCompressed) {
  SidList a = Make({1, 2, 3, 4, 5, 6, 7, 8});
  SidList b = Make({2, 4, 6, 8});
  BlockList c = BlockList::FromSidList(Make({4, 8, 12}));
  std::vector<uint32_t> expected = {4, 8};
  EXPECT_EQ(IntersectAllViews({&a, &b, &c}).ids(), expected);
  EXPECT_EQ(IntersectAllViews({&c, &a, &b}).ids(), expected);
  EXPECT_TRUE(IntersectAllViews({}).empty());
  BlockList empty;
  EXPECT_TRUE(IntersectAllViews({&a, &empty}).empty());
  EXPECT_EQ(IntersectAllViews({&c}).ids(), (std::vector<uint32_t>{4, 8, 12}));
}

TEST(BlockListTest, UnionAllBlocks) {
  BlockList a = BlockList::FromSidList(Make({1}));
  BlockList b = BlockList::FromSidList(Make({5, 6}));
  BlockList c = BlockList::FromSidList(Make({1, 9}));
  EXPECT_EQ(UnionAllBlocks({&a, &b, &c}).ids(),
            (std::vector<uint32_t>{1, 5, 6, 9}));
  EXPECT_EQ(UnionAllBlocks({&a, &c}).ids(), (std::vector<uint32_t>{1, 9}));
  EXPECT_EQ(UnionAllBlocks({&b}).ids(), (std::vector<uint32_t>{5, 6}));
  EXPECT_TRUE(UnionAllBlocks({}).empty());
}

// ---------------------------------------------------------------------------
// Packed form: round trips, canonical-encoding corruption rejection.
// ---------------------------------------------------------------------------

// Gap patterns the packed paths must all handle: dense runs
// (1-bit gaps), sparse lists (wide gaps), mixes whose block widths are
// set by one rare wide gap, and block-boundary sizes.
std::vector<std::vector<uint32_t>> PatternLists() {
  std::vector<std::vector<uint32_t>> lists;
  lists.push_back({});                            // empty
  lists.push_back({42});                          // single sid, zero gaps
  lists.push_back({0, 0xffffffffu});              // maximum gap (width 32)
  for (size_t n : {2u, 127u, 128u, 129u, 255u, 256u, 1000u}) {
    std::vector<uint32_t> dense, sparse, mixed;
    for (uint32_t i = 0; i < n; ++i) {
      dense.push_back(1000 + i);
      sparse.push_back(i * 3000017u);
      // Mostly narrow gaps with a wide one every third sid: the block
      // width is set by the rare wide gap.
      mixed.push_back(mixed.empty() ? 7u
                                    : mixed.back() + (i % 3 == 0 ? 300000u
                                                     : i % 3 == 1 ? 1u
                                                                  : 200u));
    }
    lists.push_back(std::move(dense));
    lists.push_back(std::move(sparse));
    lists.push_back(std::move(mixed));
  }
  Rng rng(1234);
  for (int round = 0; round < 8; ++round) {
    std::vector<uint32_t> ids;
    const size_t n = 1 + rng.Next() % 700;
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.Next() % (1u << 24)));
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    lists.push_back(std::move(ids));
  }
  return lists;
}

// A list's packed parts as owned vectors, so tests can corrupt fields.
struct PackedParts {
  uint32_t count = 0;
  std::vector<uint32_t> first;
  std::vector<uint32_t> offset;
  std::vector<uint32_t> width;
  std::vector<uint8_t> payload;
};

PackedParts PartsOf(const BlockList& list) {
  return {static_cast<uint32_t>(list.size()), list.skip_first().ToVector(),
          list.skip_offset().ToVector(), list.skip_width().ToVector(),
          list.bytes().ToVector()};
}

// Lays `parts` out in `arena`, every array starting `shift` bytes past a
// 4-byte boundary (0: aligned; 1: the unaligned bases an image can hand
// out), with the payload last so the arena ends exactly where it does, and
// validates-and-aliases them through FromMappedPacked. The arena must
// outlive the returned list.
Result<BlockList> MapParts(const PackedParts& parts, size_t shift,
                           std::vector<uint8_t>* arena) {
  const void* src[4] = {parts.first.data(), parts.offset.data(),
                        parts.width.data(), parts.payload.data()};
  const size_t size[4] = {parts.first.size() * sizeof(uint32_t),
                          parts.offset.size() * sizeof(uint32_t),
                          parts.width.size() * sizeof(uint32_t),
                          parts.payload.size()};
  size_t at[4];
  size_t cursor = 0;
  for (int i = 0; i < 4; ++i) {
    at[i] = cursor + shift;
    cursor = (at[i] + size[i] + 3) & ~size_t{3};
  }
  arena->assign(at[3] + size[3], 0);
  for (int i = 0; i < 4; ++i) {
    if (size[i] > 0) std::memcpy(arena->data() + at[i], src[i], size[i]);
  }
  const uint8_t* base = arena->data();
  return BlockList::FromMappedPacked(
      parts.count, U32View(base + at[0], parts.first.size()),
      U32View(base + at[1], parts.offset.size()),
      U32View(base + at[2], parts.width.size()),
      MemorySpan(base + at[3], parts.payload.size()));
}

TEST(BlockListTest, PackedEncodingIsCanonicalAndRoundTrips) {
  for (const auto& ids : PatternLists()) {
    BlockList built = BlockList::FromSidList(SidList::FromSorted(ids));
    EXPECT_FALSE(built.is_view());
    EXPECT_EQ(built.Decode().ids(), ids);
    const PackedParts parts = PartsOf(built);
    // Every block payload starts 4-byte aligned and its width is the
    // minimal one holding the block's largest gap.
    uint32_t buf[BlockList::kBlockSids];
    for (size_t b = 0; b < built.NumBlocks(); ++b) {
      EXPECT_EQ(parts.offset[b] % 4, 0u) << b;
      const size_t n = built.DecodeBlock(b, buf);
      uint32_t max_gap = 0;
      for (size_t i = 1; i < n; ++i) {
        max_gap = std::max(max_gap, buf[i] - buf[i - 1]);
      }
      EXPECT_EQ(parts.width[b], static_cast<uint32_t>(std::bit_width(max_gap)))
          << b;
    }
    // The built parts pass the image validator, and the view equals the
    // built list byte for byte.
    std::vector<uint8_t> arena;
    auto view = MapParts(parts, 0, &arena);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(*view, built);
    EXPECT_EQ(view->last_sid(), built.last_sid());
    for (uint32_t probe : {0u, 7u, 1000u, 3000017u, 0xffffffffu}) {
      EXPECT_EQ(view->Contains(probe),
                std::binary_search(ids.begin(), ids.end(), probe))
          << probe;
    }
    EXPECT_EQ(Intersect(*view, built).ids(), ids);
  }
}

TEST(BlockListTest, FromMappedPackedAliasesWithoutCopying) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 1000; ++i) ids.push_back(i * 7 + (i % 3));
  BlockList owned = BlockList::FromSidList(SidList::FromUnsorted(ids));
  const PackedParts parts = PartsOf(owned);

  auto mapped = BlockList::FromMappedPacked(
      parts.count, U32View(parts.first), U32View(parts.offset),
      U32View(parts.width),
      MemorySpan(parts.payload.data(), parts.payload.size()));
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_TRUE(mapped->is_view());
  EXPECT_EQ(mapped->MemoryUsage(), 0u);
  EXPECT_EQ(mapped->bytes().data(), parts.payload.data());  // aliases
  EXPECT_EQ(*mapped, owned);
  EXPECT_EQ(mapped->Decode(), owned.Decode());

  // A real image may hand the view unaligned base addresses (the payload
  // itself is file-aligned, but the skip arrays follow strings).
  std::vector<uint8_t> arena;
  auto remapped = MapParts(parts, 1, &arena);
  ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
  EXPECT_EQ(*remapped, owned);
}

// FromMappedPacked is the one validator every image list passes through:
// every structural invariant violation a byte flip can produce must be
// rejected, never decoded into garbage sids — whether the parts sit at
// aligned or unaligned addresses.
TEST(BlockListTest, FromMappedPackedRejectsCorruptParts) {
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < 300; ++i) ids.push_back(i * 3);
  const PackedParts good = PartsOf(BlockList::FromSidList(SidList::FromSorted(ids)));
  struct Case {
    std::string name;
    PackedParts parts;
    bool valid;
  };
  std::vector<Case> cases;
  auto corrupt = [&](const std::string& name,
                     const std::function<void(PackedParts*)>& edit) {
    PackedParts parts = good;
    edit(&parts);
    cases.push_back({name, std::move(parts), false});
  };
  cases.push_back({"good", good, true});
  // Count / skip-table shape mismatches.
  corrupt("count+1", [](PackedParts* p) { ++p->count; });
  corrupt("count 0", [](PackedParts* p) { p->count = 0; });
  corrupt("short width table", [](PackedParts* p) { p->width.pop_back(); });
  corrupt("width 33", [](PackedParts* p) { p->width[0] = 33; });
  corrupt("width not minimal", [](PackedParts* p) { p->width[0] += 1; });
  corrupt("non-monotone blocks", [](PackedParts* p) { p->first[1] = p->first[0]; });
  corrupt("first offset not zero", [](PackedParts* p) { p->offset[0] = 4; });
  corrupt("unaligned offset", [](PackedParts* p) { p->offset[1] += 2; });
  corrupt("offset out of bounds", [](PackedParts* p) {
    p->offset[1] = static_cast<uint32_t>(p->payload.size()) + 4;
  });
  // Every truncation of the payload is rejected (sizes are exact), and so
  // are trailing bytes, even zero ones.
  for (size_t cut = 1; cut <= 8 && cut <= good.payload.size(); ++cut) {
    corrupt("payload cut " + std::to_string(cut),
            [cut](PackedParts* p) { p->payload.resize(p->payload.size() - cut); });
  }
  corrupt("trailing zero byte", [](PackedParts* p) { p->payload.push_back(0); });
  corrupt("pad/slack bit", [](PackedParts* p) { p->payload.back() ^= 0x80; });

  // Hand-crafted single-block cases pinning the canonical-form rules.
  auto single = [&](const std::string& name, uint32_t count,
                    std::vector<uint32_t> first, std::vector<uint32_t> width,
                    std::vector<uint8_t> payload, bool valid) {
    std::vector<uint32_t> offset(first.size(), 0);
    cases.push_back({name,
                     {count, std::move(first), std::move(offset),
                      std::move(width), std::move(payload)},
                     valid});
  };
  // Two sids {0, 1}: gap 1, width 1, one payload word.
  single("gap 1", 2, {0}, {1}, {0x01, 0, 0, 0}, true);
  single("zero gap", 2, {0}, {1}, {0x00, 0, 0, 0}, false);
  single("slack bits", 2, {0}, {1}, {0x03, 0, 0, 0}, false);
  single("pad byte", 2, {0}, {1}, {0x01, 0, 0, 1}, false);
  // Same payload size, so this isolates the minimal-width rule.
  single("width 2 for gap 1", 2, {0}, {2}, {0x01, 0, 0, 0}, false);
  // A single-sid block must have width 0 and no payload.
  single("single sid", 1, {9}, {0}, {}, true);
  single("single sid with width", 1, {9}, {1}, {0, 0, 0, 0}, false);
  // 0xfffffff0 + 0xff overflows uint32.
  single("overflow", 2, {0xfffffff0u}, {8}, {0xff, 0, 0, 0}, false);
  // The canonical maximum: 0 then +0xffffffff (width 32, one word).
  single("max gap", 2, {0}, {32}, {0xff, 0xff, 0xff, 0xff}, true);
  // Empty list: only the all-empty parts are valid.
  cases.push_back({"empty", {}, true});
  cases.push_back({"empty with payload", {0, {}, {}, {}, {0}}, false});

  for (size_t shift : {size_t{0}, size_t{1}}) {
    for (const Case& c : cases) {
      std::vector<uint8_t> arena;
      auto list = MapParts(c.parts, shift, &arena);
      EXPECT_EQ(list.ok(), c.valid) << c.name << " shift=" << shift;
      if (list.ok()) {
        // A survivor decodes in bounds to a strictly ascending list.
        const SidList decoded = list->Decode();
        EXPECT_EQ(decoded.size(), c.parts.count) << c.name;
        EXPECT_TRUE(std::adjacent_find(decoded.begin(), decoded.end(),
                                       std::greater_equal<uint32_t>()) ==
                    decoded.end())
            << c.name;
      }
    }
  }
  std::vector<uint8_t> arena;
  auto max_gap = MapParts({2, {0}, {0}, {32}, {0xff, 0xff, 0xff, 0xff}}, 1,
                          &arena);
  ASSERT_TRUE(max_gap.ok());
  EXPECT_EQ(max_gap->Decode().ids(), (std::vector<uint32_t>{0, 0xffffffffu}));
}

TEST(BlockListTest, RejectsBlockClaimingMoreThanBlockSids) {
  // A count implying more sids than kBlockSids in one block would overflow
  // DecodeBlock's stack buffer; validation must reject it whatever the
  // payload claims.
  std::vector<uint8_t> arena;
  EXPECT_FALSE(MapParts({130, {0}, {0}, {1}, {0xff, 0xff, 0, 0}}, 0, &arena).ok());
  // kBlockSids exactly still fits.
  std::vector<uint32_t> ids(BlockList::kBlockSids);
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  auto full = MapParts(PartsOf(BlockList::FromSidList(SidList::FromSorted(ids))),
                       0, &arena);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->NumBlocks(), 1u);
  EXPECT_EQ(full->Decode().ids(), ids);
}

// ---------------------------------------------------------------------------
// Posting kernels: block unpack and sorted-set merge against references.
// ---------------------------------------------------------------------------

TEST(PostingKernelTest, DecodeMatchesIds) {
  // Every pattern list decodes to its ids, from the built list and from a
  // byte-shifted (unaligned) image view.
  for (const auto& ids : PatternLists()) {
    BlockList built = BlockList::FromSidList(SidList::FromSorted(ids));
    std::vector<uint8_t> arena;
    auto unaligned = MapParts(PartsOf(built), 1, &arena);
    ASSERT_TRUE(unaligned.ok()) << unaligned.status().ToString();
    EXPECT_EQ(built.Decode().ids(), ids) << "built n=" << ids.size();
    EXPECT_EQ(unaligned->Decode().ids(), ids) << "view n=" << ids.size();
  }
}

TEST(PostingKernelTest, IntersectMatchesReference) {
  // Every SidList/BlockList pairing, in both argument orders, equals
  // std::set_intersection: over every pair of pattern lists, and over
  // random lists whose skews hit both the merge and gallop strategies.
  std::vector<SidList> lists;
  for (const auto& ids : PatternLists()) {
    lists.push_back(SidList::FromSorted(ids));
  }
  const size_t num_patterns = lists.size();
  Rng rng(4242);
  for (int round = 0; round < 60; ++round) {
    const size_t na = 1 + rng.Next() % 400;
    const size_t skew = 1 + rng.Next() % 100;
    const size_t nb = 1 + (rng.Next() % 400) * skew;
    lists.push_back(RandomList(&rng, na, 1u << 18));
    lists.push_back(RandomList(&rng, nb, 1u << 18));
  }
  auto check = [](const SidList& a, const SidList& b) {
    const std::vector<uint32_t> expected = ReferenceIntersect(a, b);
    const BlockList ba = BlockList::FromSidList(a);
    const BlockList bb = BlockList::FromSidList(b);
    const std::string what =
        "na=" + std::to_string(a.size()) + " nb=" + std::to_string(b.size());
    EXPECT_EQ(Intersect(a, b).ids(), expected) << what;
    EXPECT_EQ(Intersect(b, a).ids(), expected) << what;
    EXPECT_EQ(Intersect(ba, bb).ids(), expected) << what;
    EXPECT_EQ(Intersect(bb, ba).ids(), expected) << what;
    EXPECT_EQ(Intersect(a, bb).ids(), expected) << what;
    EXPECT_EQ(Intersect(ba, b).ids(), expected) << what;
  };
  for (size_t i = 0; i < num_patterns; ++i) {
    for (size_t j = i; j < num_patterns; ++j) check(lists[i], lists[j]);
  }
  for (size_t i = num_patterns; i + 1 < lists.size(); i += 2) {
    check(lists[i], lists[i + 1]);
  }
}

}  // namespace
}  // namespace koko
