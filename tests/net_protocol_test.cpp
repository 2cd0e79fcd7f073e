// Wire-protocol codec suite: round-trips every frame kind through its
// encoder/decoder pair and then attacks the decoders with the inputs a
// hostile or broken peer can produce — truncations at every byte, length
// prefixes that promise more than the payload holds, element counts no
// payload could back, unknown flags, and trailing garbage. Every attack
// must yield a clean ParseError (never a crash, OOB read, or unbounded
// allocation); the sanitizer jobs in CI run this suite to enforce the
// "never a crash" half mechanically.

#include "net/frame.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

namespace koko {
namespace net {
namespace {

// ---- Round trips -----------------------------------------------------------

TEST(FrameHeaderTest, RoundTripsEveryType) {
  for (FrameType type : {FrameType::kRequest, FrameType::kHeader,
                         FrameType::kRows, FrameType::kDone,
                         FrameType::kError}) {
    std::vector<uint8_t> bytes;
    AppendFrameHeader(type, 12345, &bytes);
    ASSERT_EQ(bytes.size(), kFrameHeaderSize);
    auto header = DecodeFrameHeader(bytes.data(), bytes.size());
    ASSERT_TRUE(header.ok()) << header.status().ToString();
    EXPECT_EQ(header->type, type);
    EXPECT_EQ(header->payload_len, 12345u);
  }
}

TEST(RequestCodecTest, RoundTripsAllFieldCombinations) {
  for (bool streaming : {false, true}) {
    for (bool allow_batch : {false, true}) {
      for (uint64_t max_rows : {uint64_t{0}, uint64_t{7},
                                uint64_t{1} << 40}) {
        NetRequest request;
        request.query_text = "extract e:Entity from docs return e:Str";
        request.max_rows = max_rows;
        request.streaming = streaming;
        request.allow_batch = allow_batch;
        const std::vector<uint8_t> bytes = EncodeRequest(request);
        auto decoded = DecodeRequest(bytes.data(), bytes.size());
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        EXPECT_EQ(decoded->query_text, request.query_text);
        EXPECT_EQ(decoded->max_rows, max_rows);
        EXPECT_EQ(decoded->streaming, streaming);
        EXPECT_EQ(decoded->allow_batch, allow_batch);
      }
    }
  }
}

TEST(HeaderCodecTest, RoundTripsNames) {
  const std::vector<std::string> names = {"e", "score", "", "long name with "
                                                            "spaces"};
  const std::vector<uint8_t> bytes = EncodeHeaderPayload(names);
  auto decoded = DecodeHeaderPayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, names);
}

TEST(HeaderCodecTest, RoundTripsEmpty) {
  const std::vector<uint8_t> bytes = EncodeHeaderPayload({});
  auto decoded = DecodeHeaderPayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

std::vector<ResultRow> SampleRows() {
  std::vector<ResultRow> rows;
  ResultRow a;
  a.doc = 3;
  a.sid = 11;
  a.values = {"the cafe", "Str"};
  a.scores = {0.25, -1.5};
  rows.push_back(a);
  ResultRow b;
  b.doc = 0xffffffff;
  b.sid = 0;
  b.values = {""};
  b.scores = {};
  rows.push_back(b);
  ResultRow c;  // no values/scores at all
  rows.push_back(c);
  return rows;
}

TEST(RowsCodecTest, RoundTripsRowsBitExactly) {
  const std::vector<ResultRow> rows = SampleRows();
  const std::vector<uint8_t> bytes = EncodeRowsPayload(rows, 0, rows.size());
  auto decoded = DecodeRowsPayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ((*decoded)[i].doc, rows[i].doc);
    EXPECT_EQ((*decoded)[i].sid, rows[i].sid);
    EXPECT_EQ((*decoded)[i].values, rows[i].values);
    ASSERT_EQ((*decoded)[i].scores.size(), rows[i].scores.size());
    for (size_t s = 0; s < rows[i].scores.size(); ++s) {
      // Bit-pattern equality, not numeric: the digest contract hashes raw
      // IEEE-754 bits, so the wire must preserve them exactly.
      uint64_t sent, got;
      std::memcpy(&sent, &rows[i].scores[s], sizeof(sent));
      std::memcpy(&got, &(*decoded)[i].scores[s], sizeof(got));
      EXPECT_EQ(got, sent) << "row " << i << " score " << s;
    }
  }
}

TEST(RowsCodecTest, EncodesSubranges) {
  const std::vector<ResultRow> rows = SampleRows();
  const std::vector<uint8_t> bytes = EncodeRowsPayload(rows, 1, 2);
  auto decoded = DecodeRowsPayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0].doc, rows[1].doc);
  EXPECT_EQ((*decoded)[1].doc, rows[2].doc);
}

TEST(DoneCodecTest, RoundTrips) {
  NetDone done;
  done.rows = 42;
  done.candidate_sentences = 1000;
  done.scanned_candidates = 77;
  done.early_terminated = true;
  done.batched = true;
  const std::vector<uint8_t> bytes = EncodeDonePayload(done);
  auto decoded = DecodeDonePayload(bytes.data(), bytes.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->rows, done.rows);
  EXPECT_EQ(decoded->candidate_sentences, done.candidate_sentences);
  EXPECT_EQ(decoded->scanned_candidates, done.scanned_candidates);
  EXPECT_EQ(decoded->early_terminated, done.early_terminated);
  EXPECT_EQ(decoded->batched, done.batched);
}

TEST(ErrorCodecTest, RoundTripsEveryCode) {
  // Starts at 1: kOk (0) is not a valid error code and is rejected below.
  for (uint8_t code = 1;
       code <= static_cast<uint8_t>(StatusCode::kUnavailable); ++code) {
    const std::vector<uint8_t> bytes = EncodeErrorPayload(
        static_cast<StatusCode>(code), "something went wrong");
    auto decoded = DecodeErrorPayload(bytes.data(), bytes.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(static_cast<uint8_t>(decoded->code), code);
    EXPECT_EQ(decoded->message, "something went wrong");
  }
}

TEST(EncodeFrameTest, ProducesHeaderPlusPayload) {
  const std::vector<uint8_t> payload = EncodeHeaderPayload({"e"});
  const std::vector<uint8_t> frame = EncodeFrame(FrameType::kHeader, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  auto header = DecodeFrameHeader(frame.data(), frame.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->type, FrameType::kHeader);
  EXPECT_EQ(header->payload_len, payload.size());
}

// ---- Byte goldens ----------------------------------------------------------
//
// The round trips above still pass if encoder and decoder change the layout
// together; these pin the exact bytes docs/WIRE_PROTOCOL.md specifies, one
// frame of each type.

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

TEST(WireGoldenTest, RequestFrameBytes) {
  NetRequest request;
  request.query_text = "a b";
  request.max_rows = 0x102;
  request.streaming = true;
  request.allow_batch = false;
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kRequest, EncodeRequest(request))),
            "4f4b010110000000"    // magic, version 1, kRequest, 16 bytes
            "03000000" "612062"   // query text
            "0201000000000000"    // max_rows
            "05");                // flags: streaming | no-batch
}

TEST(WireGoldenTest, HeaderFrameBytes) {
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kHeader,
                            EncodeHeaderPayload({"x", "yz"}))),
            "4f4b01020f000000"
            "02000000"            // column count
            "01000000" "78"       // "x"
            "02000000" "797a");   // "yz"
}

TEST(WireGoldenTest, RowsFrameBytes) {
  std::vector<ResultRow> rows(1);
  rows[0].doc = 1;
  rows[0].sid = 0x203;
  rows[0].values = {"v"};
  rows[0].scores = {0.5};
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kRows,
                            EncodeRowsPayload(rows, 0, rows.size()))),
            "4f4b01031d000000"
            "01000000"            // row count
            "01000000" "03020000" // doc, sid
            "0100" "0100"         // value count, score count
            "01000000" "76"       // "v"
            "000000000000e03f");  // 0.5 as IEEE-754 bits
}

TEST(WireGoldenTest, DoneFrameBytes) {
  NetDone done;
  done.rows = 1;
  done.candidate_sentences = 2;
  done.scanned_candidates = 3;
  done.early_terminated = true;
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kDone, EncodeDonePayload(done))),
            "4f4b01041a000000"
            "0100000000000000" "0200000000000000" "0300000000000000"
            "01" "00");           // early_terminated, batched
}

TEST(WireGoldenTest, ErrorFrameBytes) {
  EXPECT_EQ(Hex(EncodeFrame(FrameType::kError,
                            EncodeErrorPayload(StatusCode::kUnavailable,
                                               "busy"))),
            "4f4b010509000000"
            "09"                  // kUnavailable
            "04000000" "62757379");
}

// ---- Adversarial headers ---------------------------------------------------

TEST(FrameHeaderTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes;
  AppendFrameHeader(FrameType::kRequest, 0, &bytes);
  bytes[0] ^= 0xff;
  EXPECT_FALSE(DecodeFrameHeader(bytes.data(), bytes.size()).ok());
}

TEST(FrameHeaderTest, RejectsWrongVersion) {
  std::vector<uint8_t> bytes;
  AppendFrameHeader(FrameType::kRequest, 0, &bytes);
  bytes[2] = kWireVersion + 1;
  EXPECT_FALSE(DecodeFrameHeader(bytes.data(), bytes.size()).ok());
}

TEST(FrameHeaderTest, RejectsUnknownType) {
  for (uint8_t type : {uint8_t{0}, uint8_t{6}, uint8_t{0xff}}) {
    std::vector<uint8_t> bytes;
    AppendFrameHeader(FrameType::kRequest, 0, &bytes);
    bytes[3] = type;
    EXPECT_FALSE(DecodeFrameHeader(bytes.data(), bytes.size()).ok())
        << "type " << static_cast<int>(type);
  }
}

TEST(FrameHeaderTest, RejectsOversizedLengthPrefix) {
  // A length prefix above the protocol max is a violation, not an
  // allocation request — the server must refuse before reading a byte of
  // payload.
  std::vector<uint8_t> bytes;
  AppendFrameHeader(FrameType::kRequest, kMaxFramePayload + 1, &bytes);
  EXPECT_FALSE(DecodeFrameHeader(bytes.data(), bytes.size()).ok());
  bytes.clear();
  AppendFrameHeader(FrameType::kRequest, 0xffffffffu, &bytes);
  EXPECT_FALSE(DecodeFrameHeader(bytes.data(), bytes.size()).ok());
}

TEST(FrameHeaderTest, AcceptsMaxPayloadExactly) {
  std::vector<uint8_t> bytes;
  AppendFrameHeader(FrameType::kRows, kMaxFramePayload, &bytes);
  auto header = DecodeFrameHeader(bytes.data(), bytes.size());
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(header->payload_len, kMaxFramePayload);
}

TEST(FrameHeaderTest, RejectsTruncatedHeader) {
  std::vector<uint8_t> bytes;
  AppendFrameHeader(FrameType::kRequest, 0, &bytes);
  for (size_t len = 0; len < kFrameHeaderSize; ++len) {
    EXPECT_FALSE(DecodeFrameHeader(bytes.data(), len).ok()) << "len " << len;
  }
}

// ---- Adversarial payloads --------------------------------------------------

// Every strict prefix of a valid payload must decode to a clean error:
// the decoders bound every read, so no truncation point reads past the
// bytes handed in (ASan/UBSan verify the "no OOB" half).
template <typename DecodeFn>
void ExpectAllTruncationsRejected(const std::vector<uint8_t>& valid,
                                  const DecodeFn& decode) {
  for (size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(decode(valid.data(), len).ok()) << "prefix length " << len;
  }
}

TEST(RequestCodecTest, RejectsEveryTruncation) {
  NetRequest request;
  request.query_text = "extract e:Entity from docs return e:Str";
  request.max_rows = 9;
  ExpectAllTruncationsRejected(EncodeRequest(request), DecodeRequest);
}

TEST(HeaderCodecTest, RejectsEveryTruncation) {
  ExpectAllTruncationsRejected(EncodeHeaderPayload({"e", "f"}),
                               DecodeHeaderPayload);
}

TEST(RowsCodecTest, RejectsEveryTruncation) {
  const std::vector<ResultRow> rows = SampleRows();
  ExpectAllTruncationsRejected(EncodeRowsPayload(rows, 0, rows.size()),
                               DecodeRowsPayload);
}

TEST(DoneCodecTest, RejectsEveryTruncation) {
  ExpectAllTruncationsRejected(EncodeDonePayload(NetDone{}),
                               DecodeDonePayload);
}

TEST(ErrorCodecTest, RejectsEveryTruncation) {
  ExpectAllTruncationsRejected(
      EncodeErrorPayload(StatusCode::kParseError, "msg"), DecodeErrorPayload);
}

TEST(RequestCodecTest, RejectsTrailingBytes) {
  NetRequest request;
  request.query_text = "extract e:Entity from docs return e:Str";
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes.push_back(0);
  EXPECT_FALSE(DecodeRequest(bytes.data(), bytes.size()).ok());
}

TEST(RequestCodecTest, RejectsUnknownFlags) {
  // Bit 1 (once "planner off") is reserved and rejected like the rest.
  NetRequest request;
  request.query_text = "extract e:Entity from docs return e:Str";
  for (int bit : {1, 3, 7}) {
    std::vector<uint8_t> bytes = EncodeRequest(request);
    bytes.back() |= static_cast<uint8_t>(1u << bit);
    auto decoded = DecodeRequest(bytes.data(), bytes.size());
    ASSERT_FALSE(decoded.ok()) << "bit " << bit;
    EXPECT_EQ(decoded.status().message(), "request carries unknown flag bits");
  }
}

TEST(RequestCodecTest, RejectsEmptyQueryText) {
  NetRequest request;
  request.query_text = "";
  const std::vector<uint8_t> bytes = EncodeRequest(request);
  EXPECT_FALSE(DecodeRequest(bytes.data(), bytes.size()).ok());
}

TEST(RequestCodecTest, RejectsStringLengthBeyondPayload) {
  // A query-text length prefix larger than the remaining bytes must not
  // drive an allocation or an OOB read.
  NetRequest request;
  request.query_text = "abc";
  std::vector<uint8_t> bytes = EncodeRequest(request);
  bytes[0] = 0xff;
  bytes[1] = 0xff;
  bytes[2] = 0xff;
  bytes[3] = 0xff;
  EXPECT_FALSE(DecodeRequest(bytes.data(), bytes.size()).ok());
}

TEST(HeaderCodecTest, RejectsCountBeyondPayloadCapacity) {
  // Count says 2^31 names but the payload holds four bytes of nothing —
  // the decoder must reject by capacity before reserving anything.
  std::vector<uint8_t> bytes = EncodeHeaderPayload({});
  bytes[0] = 0xff;
  bytes[3] = 0x7f;
  EXPECT_FALSE(DecodeHeaderPayload(bytes.data(), bytes.size()).ok());
}

TEST(RowsCodecTest, RejectsCountBeyondPayloadCapacity) {
  std::vector<uint8_t> bytes = EncodeRowsPayload({}, 0, 0);
  bytes[0] = 0xff;
  bytes[3] = 0x7f;
  EXPECT_FALSE(DecodeRowsPayload(bytes.data(), bytes.size()).ok());
}

TEST(RowsCodecTest, RejectsValueCountBeyondPayload) {
  // One row claiming 0xffff values backed by nothing.
  std::vector<uint8_t> bytes;
  // count=1, doc=0, sid=0, values=0xffff, scores=0
  const uint8_t raw[] = {1, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                         0, 0, 0xff, 0xff, 0, 0};
  bytes.assign(raw, raw + sizeof(raw));
  EXPECT_FALSE(DecodeRowsPayload(bytes.data(), bytes.size()).ok());
}

TEST(DoneCodecTest, RejectsNonBooleanFlags) {
  std::vector<uint8_t> bytes = EncodeDonePayload(NetDone{});
  bytes[bytes.size() - 1] = 2;  // batched must be 0/1
  EXPECT_FALSE(DecodeDonePayload(bytes.data(), bytes.size()).ok());
  bytes = EncodeDonePayload(NetDone{});
  bytes[bytes.size() - 2] = 0xcc;  // early_terminated must be 0/1
  EXPECT_FALSE(DecodeDonePayload(bytes.data(), bytes.size()).ok());
}

TEST(ErrorCodecTest, RejectsInvalidStatusCode) {
  std::vector<uint8_t> bytes =
      EncodeErrorPayload(StatusCode::kParseError, "msg");
  bytes[0] = 0xee;
  EXPECT_FALSE(DecodeErrorPayload(bytes.data(), bytes.size()).ok());
}

TEST(ErrorCodecTest, RejectsOkAsErrorCode) {
  // An error frame carrying kOk is a contradiction a correct server never
  // produces; treat it as a protocol violation rather than silently
  // inventing success.
  std::vector<uint8_t> bytes = EncodeErrorPayload(StatusCode::kOk, "fine");
  EXPECT_FALSE(DecodeErrorPayload(bytes.data(), bytes.size()).ok());
}

TEST(GarbageTest, RandomBytesNeverCrashAnyDecoder) {
  // Deterministic xorshift garbage across many sizes; every decoder must
  // return (ok or not) without crashing. Sanitizer jobs turn silent OOB
  // into failures here.
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return static_cast<uint8_t>(state);
  };
  for (size_t size : {0u, 1u, 3u, 7u, 8u, 13u, 64u, 1000u}) {
    for (int iter = 0; iter < 50; ++iter) {
      std::vector<uint8_t> bytes(size);
      for (uint8_t& b : bytes) b = next();
      (void)DecodeFrameHeader(bytes.data(), bytes.size());
      (void)DecodeRequest(bytes.data(), bytes.size());
      (void)DecodeHeaderPayload(bytes.data(), bytes.size());
      (void)DecodeRowsPayload(bytes.data(), bytes.size());
      (void)DecodeDonePayload(bytes.data(), bytes.size());
      (void)DecodeErrorPayload(bytes.data(), bytes.size());
    }
  }
}

}  // namespace
}  // namespace net
}  // namespace koko
