#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <vector>

#include "storage/serde.h"
#include "util/hash.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace koko {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeName(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIoError), "IoError");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubler(Result<int> in) {
  KOKO_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubler(21), 42);
  EXPECT_FALSE(Doubler(Status::Internal("boom")).ok());
}

TEST(StringUtilTest, Split) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
}

TEST(StringUtilTest, SplitWhitespaceDropsEmpty) {
  auto parts = SplitWhitespace("  hello   world \t x ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "world");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("HeLLo"), "hello");
  EXPECT_TRUE(EqualsIgnoreCase("CAFE", "cafe"));
  EXPECT_FALSE(EqualsIgnoreCase("cafe", "caff"));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
}

TEST(StringUtilTest, ContainsVariants) {
  EXPECT_TRUE(Contains("chocolate ice cream", "ice"));
  EXPECT_FALSE(Contains("chocolate", "Choc"));
}

TEST(StringUtilTest, PrefixSuffix) {
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, DigitHelpers) {
  EXPECT_TRUE(IsAllDigits("1900"));
  EXPECT_FALSE(IsAllDigits("19a0"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_TRUE(IsCapitalized("Anna"));
  EXPECT_FALSE(IsCapitalized("anna"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.456789, 2), "0.46");
  EXPECT_EQ(FormatDouble(3.0, 1), "3.0");
}

TEST(StringUtilTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512.00 B");
  EXPECT_EQ(HumanBytes(1536), "1.50 KB");
}

TEST(HashTest, Fnv1aDeterministicAndSpread) {
  EXPECT_EQ(Fnv1a64("koko"), Fnv1a64("koko"));
  EXPECT_NE(Fnv1a64("koko"), Fnv1a64("kok"));
  EXPECT_NE(Fnv1a64("a", 1), Fnv1a64("a", 2));
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Uniform(10);
    EXPECT_LT(v, 10u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, FromStringDiffers) {
  EXPECT_NE(Rng::FromString("a").Next(), Rng::FromString("b").Next());
}

TEST(TimerTest, PhaseStatsAccumulate) {
  PhaseStats stats;
  stats.Add(Phase::kDpli, 1.5);
  stats.Add(Phase::kDpli, 0.5);
  stats.Add(Phase::kExtract, 1.0);
  EXPECT_DOUBLE_EQ(stats.Get(Phase::kDpli), 2.0);
  EXPECT_DOUBLE_EQ(stats.Get("DPLI"), 2.0);
  EXPECT_DOUBLE_EQ(stats.Total(), 3.0);
  EXPECT_DOUBLE_EQ(stats.Get(Phase::kNormalize), 0.0);
  EXPECT_DOUBLE_EQ(stats.Get("missing"), 0.0);
}

TEST(TimerTest, PhaseNamesRoundTrip) {
  PhaseStats stats;
  for (size_t i = 0; i < kNumPhases; ++i) {
    stats.Add(static_cast<Phase>(i), static_cast<double>(i + 1));
  }
  for (size_t i = 0; i < kNumPhases; ++i) {
    const Phase phase = static_cast<Phase>(i);
    EXPECT_DOUBLE_EQ(stats.Get(PhaseName(phase)), static_cast<double>(i + 1))
        << PhaseName(phase);
  }
  EXPECT_DOUBLE_EQ(stats.Total(), 1 + 2 + 3 + 5 + 6);  // all but GSP's 4
}

TEST(TimerTest, ScopedPhaseCharges) {
  PhaseStats stats;
  {
    ScopedPhase phase(&stats, Phase::kExtract);
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  }
  EXPECT_GT(stats.Get(Phase::kExtract), 0.0);
}

// GSP is a sub-phase of extract: its time lies inside extract's, so the
// total leaves it out.
TEST(TimerTest, GspIsNotCountedTwice) {
  PhaseStats stats;
  {
    ScopedPhase outer(&stats, Phase::kExtract);
    ScopedPhase inner(&stats, Phase::kGsp);
    volatile unsigned sink = 0;
    for (unsigned i = 0; i < 100000; ++i) sink = sink + i;
  }
  stats.Add(Phase::kSatisfying, 1.0);
  EXPECT_GT(stats.Get(Phase::kGsp), 0.0);
  EXPECT_LE(stats.Get(Phase::kGsp), stats.Get(Phase::kExtract));
  EXPECT_DOUBLE_EQ(stats.Total(), stats.Get(Phase::kExtract) + 1.0);
}

TEST(TimerTest, WallTimerMonotone) {
  WallTimer t;
  double a = t.ElapsedSeconds();
  double b = t.ElapsedSeconds();
  EXPECT_GE(b, a);
}

// ---- MemorySpan / U32View / MappedFile / SpanReader -------------------------

TEST(MemorySpanTest, SliceBoundsChecked) {
  std::vector<uint8_t> bytes = {1, 2, 3, 4, 5};
  MemorySpan span(bytes.data(), bytes.size());
  auto mid = span.Slice(1, 3);
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(mid->size(), 3u);
  EXPECT_EQ(mid->data(), bytes.data() + 1);
  EXPECT_TRUE(span.Slice(5, 0).ok());   // empty slice at the end is valid
  EXPECT_FALSE(span.Slice(6, 0).ok());  // offset past the end
  EXPECT_FALSE(span.Slice(3, 3).ok());  // length past the end
  // Overflow-shaped arguments must not wrap around.
  EXPECT_FALSE(span.Slice(1, SIZE_MAX).ok());
  EXPECT_EQ(mid->ToVector(), (std::vector<uint8_t>{2, 3, 4}));
}

TEST(U32ViewTest, UnalignedLoads) {
  // A view based one byte into a buffer exercises the unaligned path a
  // caller-supplied span that does not start aligned takes.
  std::vector<uint32_t> values = {7, 0, 0xffffffffu, 123456789u};
  std::vector<uint8_t> shifted(1 + values.size() * sizeof(uint32_t));
  std::memcpy(shifted.data() + 1, values.data(),
              values.size() * sizeof(uint32_t));
  U32View view(shifted.data() + 1, values.size());
  ASSERT_EQ(view.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(view[i], values[i]);
  EXPECT_EQ(view.ToVector(), values);
  U32View aligned(values);
  EXPECT_EQ(aligned.raw(), reinterpret_cast<const uint8_t*>(values.data()));
  EXPECT_EQ(aligned.raw_size(), values.size() * sizeof(uint32_t));
}

TEST(MappedFileTest, MapsReadsAndOutlivesUnlink) {
  const std::string path = ::testing::TempDir() + "/mmap_util_test.bin";
  const std::string payload = "mapped bytes survive unlink";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(payload.data(), static_cast<long>(payload.size()));
  }
  auto file = MappedFile::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->size(), payload.size());
  EXPECT_EQ((*file)->path(), path);
  std::remove(path.c_str());  // POSIX: the mapping keeps the pages alive
  const MemorySpan span = (*file)->span();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(span.data()),
                        span.size()),
            payload);
}

TEST(MappedFileTest, FromWordsOwnsAnAlignedImage) {
  // An image assembled in memory is served through the same span API as
  // a read file: an owned, 4-byte-aligned buffer of the words' bytes.
  const std::vector<uint32_t> words = {0x4b494458u, 5, 0, 42};
  auto file = MappedFile::FromWords(words);
  EXPECT_FALSE(file->mmapped());
  ASSERT_EQ(file->size(), words.size() * sizeof(uint32_t));
  const MemorySpan span = file->span();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data()) % alignof(uint32_t), 0u);
  EXPECT_EQ(U32View(span.data(), words.size()).ToVector(), words);
  EXPECT_TRUE(MappedFile::FromWords({})->span().empty());
}

TEST(MappedFileTest, OpenFailuresAreCleanErrors) {
  auto missing = MappedFile::Open(::testing::TempDir() + "/no_such_file.bin");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  // Directories are not mappable index images.
  EXPECT_FALSE(MappedFile::Open(::testing::TempDir()).ok());
  // An empty file maps to an empty span (the image parser then rejects it).
  const std::string path = ::testing::TempDir() + "/mmap_empty_test.bin";
  { std::ofstream out(path, std::ios::binary); }
  auto empty = MappedFile::Open(path);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_EQ((*empty)->size(), 0u);
  EXPECT_TRUE((*empty)->span().empty());
  std::remove(path.c_str());
}

TEST(MappedFileTest, ReadCopiesIntoAnOwnedBuffer) {
  // Read is Open's heap-copy twin: same span API and contents, but the
  // bytes are an owned buffer (mmapped() false) that survives any later
  // change to the file.
  const std::string path = ::testing::TempDir() + "/read_util_test.bin";
  const std::string payload = "owned bytes";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(payload.data(), static_cast<long>(payload.size()));
  }
  auto mapped = MappedFile::Open(path);
  auto owned = MappedFile::Read(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(owned.ok()) << owned.status().ToString();
  EXPECT_TRUE((*mapped)->mmapped());
  EXPECT_FALSE((*owned)->mmapped());
  EXPECT_EQ((*owned)->path(), path);
  { std::ofstream truncate(path, std::ios::binary | std::ios::trunc); }
  const MemorySpan span = (*owned)->span();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(span.data()),
                        span.size()),
            payload);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(span.data()) % alignof(uint32_t), 0u);
  // Failures are clean errors; an empty file reads to an empty span.
  auto empty = MappedFile::Read(path);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE((*empty)->span().empty());
  std::remove(path.c_str());
  auto missing = MappedFile::Read(path);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kIoError);
  EXPECT_FALSE(MappedFile::Read(::testing::TempDir()).ok());
}

TEST(SpanReaderTest, ReadsScalarsStringsAndViews) {
  // Build a little stream, then parse it back with SpanReader and check
  // the array and blob reads alias instead of copying.
  std::string image;
  ByteWriter writer(&image);
  writer.WriteU32(42);
  writer.WriteString("word");
  const std::vector<uint32_t> u32s = {1, 2, 3};
  writer.WriteU32(static_cast<uint32_t>(u32s.size()));
  writer.WriteBytes(u32s.data(), u32s.size() * sizeof(uint32_t));
  const std::vector<uint8_t> raw = {9, 8};
  writer.WriteU32(static_cast<uint32_t>(raw.size()));
  writer.WriteBytes(raw.data(), raw.size());
  writer.WriteBytes("\0\0", 2);  // zero pad to a 4-byte multiple
  writer.WriteU64(7);
  const MemorySpan span(reinterpret_cast<const uint8_t*>(image.data()),
                        image.size());

  SpanReader reader(span);
  auto a = reader.ReadU32();
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, 42u);
  auto s = reader.ReadString();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s, "word");
  auto view = reader.ReadU32Array();
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->ToVector(), u32s);
  EXPECT_GE(view->raw(), span.data());  // a view into the span, not a copy
  EXPECT_LT(view->raw(), span.data() + span.size());
  EXPECT_EQ(view->Slice(1, 3).ToVector(), (std::vector<uint32_t>{2, 3}));
  auto bytes = reader.ReadPaddedBytes();
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(bytes->ToVector(), raw);
  auto b = reader.ReadU64();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, 7u);
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_FALSE(reader.ReadU32().ok());  // past the end: clean error
}

TEST(SpanReaderTest, CorruptLengthPrefixesRejected) {
  // A length prefix larger than the remaining bytes must fail, not read
  // (or allocate) past the span.
  std::string image;
  ByteWriter writer(&image);
  writer.WriteU32(1000000);  // claims 1M entries, stream ends right after
  const MemorySpan span(reinterpret_cast<const uint8_t*>(image.data()),
                        image.size());
  EXPECT_FALSE(SpanReader(span).ReadU32Array().ok());
  EXPECT_FALSE(SpanReader(span).ReadPaddedBytes().ok());
  EXPECT_FALSE(SpanReader(span).ReadString().ok());
}

TEST(SpanReaderTest, PaddedBytesRejectNonzeroPad) {
  // A blob's pad is part of the canonical image: a nonzero pad byte is
  // corruption, and a pad cut off by the end of the span is truncation.
  const uint8_t padded[] = {3, 0, 0, 0, 'a', 'b', 'c', 0};
  EXPECT_TRUE(SpanReader(MemorySpan(padded, sizeof(padded)))
                  .ReadPaddedBytes()
                  .ok());
  const uint8_t dirty[] = {3, 0, 0, 0, 'a', 'b', 'c', 1};
  auto bad = SpanReader(MemorySpan(dirty, sizeof(dirty))).ReadPaddedBytes();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(SpanReader(MemorySpan(padded, sizeof(padded) - 1))
                   .ReadPaddedBytes()
                   .ok());
}

}  // namespace
}  // namespace koko
