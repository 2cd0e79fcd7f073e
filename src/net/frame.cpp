#include "net/frame.h"

#include <bit>
#include <utility>

#include "net/socket.h"
#include "storage/serde.h"

namespace koko {
namespace net {

namespace {

// Moves a read's value into `out`; false when the read ran past the
// payload, which each decoder reports as a truncated payload.
template <typename T>
bool Take(Result<T> read, T* out) {
  if (!read.ok()) return false;
  *out = std::move(*read);
  return true;
}

Status Truncated(const char* what) {
  return Status::ParseError(std::string("truncated ") + what + " payload");
}

Status Trailing(const char* what) {
  return Status::ParseError(std::string(what) +
                            " payload has trailing bytes after the last field");
}

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kUnavailable);
}

}  // namespace

// ---- Header ----------------------------------------------------------------

void AppendFrameHeader(FrameType type, uint32_t payload_len,
                       std::vector<uint8_t>* out) {
  ByteWriter writer(out);
  writer.WriteU16(kWireMagic);
  writer.WriteU8(kWireVersion);
  writer.WriteU8(static_cast<uint8_t>(type));
  writer.WriteU32(payload_len);
}

Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size) {
  SpanReader reader(MemorySpan(data, size));
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint32_t payload_len = 0;
  if (!Take(reader.ReadU16(), &magic) || !Take(reader.ReadU8(), &version) ||
      !Take(reader.ReadU8(), &type) || !Take(reader.ReadU32(), &payload_len)) {
    return Truncated("frame header");
  }
  if (magic != kWireMagic) {
    return Status::ParseError("bad frame magic (not a KOKO wire stream)");
  }
  if (version != kWireVersion) {
    return Status::ParseError("unsupported wire version " +
                              std::to_string(version));
  }
  if (type < static_cast<uint8_t>(FrameType::kRequest) ||
      type > static_cast<uint8_t>(FrameType::kError)) {
    return Status::ParseError("unknown frame type " + std::to_string(type));
  }
  if (payload_len > kMaxFramePayload) {
    return Status::ParseError("frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the protocol maximum");
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.payload_len = payload_len;
  return header;
}

Result<FrameHeader> ReadFrame(Socket* socket, FrameReader reader,
                              std::vector<uint8_t>* payload) {
  uint8_t bytes[kFrameHeaderSize];
  KOKO_RETURN_IF_ERROR(socket->ReadFully(bytes, sizeof(bytes)));
  KOKO_ASSIGN_OR_RETURN(FrameHeader header,
                        DecodeFrameHeader(bytes, sizeof(bytes)));
  if ((header.type == FrameType::kRequest) !=
      (reader == FrameReader::kServer)) {
    return Status::ParseError(reader == FrameReader::kServer
                                  ? "unexpected frame type (want request)"
                                  : "server sent a request frame");
  }
  payload->resize(header.payload_len);
  if (header.payload_len > 0) {
    KOKO_RETURN_IF_ERROR(socket->ReadFully(payload->data(), payload->size()));
  }
  return header;
}

// ---- Encoders --------------------------------------------------------------

std::vector<uint8_t> EncodeRequest(const NetRequest& request) {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.WriteString(request.query_text);
  writer.WriteU64(request.max_rows);
  uint8_t flags = 0;
  if (request.streaming) flags |= kReqFlagStreaming;
  if (!request.allow_batch) flags |= kReqFlagNoBatch;
  writer.WriteU8(flags);
  return out;
}

std::vector<uint8_t> EncodeHeaderPayload(
    const std::vector<std::string>& output_names) {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.WriteU32(static_cast<uint32_t>(output_names.size()));
  for (const std::string& name : output_names) writer.WriteString(name);
  return out;
}

std::vector<uint8_t> EncodeRowsPayload(const std::vector<ResultRow>& rows,
                                       size_t begin, size_t count) {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.WriteU32(static_cast<uint32_t>(count));
  for (size_t i = begin; i < begin + count; ++i) {
    const ResultRow& row = rows[i];
    writer.WriteU32(row.doc);
    writer.WriteU32(row.sid);
    writer.WriteU16(static_cast<uint16_t>(row.values.size()));
    writer.WriteU16(static_cast<uint16_t>(row.scores.size()));
    for (const std::string& value : row.values) writer.WriteString(value);
    for (double score : row.scores) {
      writer.WriteU64(std::bit_cast<uint64_t>(score));
    }
  }
  return out;
}

std::vector<uint8_t> EncodeDonePayload(const NetDone& done) {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.WriteU64(done.rows);
  writer.WriteU64(done.candidate_sentences);
  writer.WriteU64(done.scanned_candidates);
  writer.WriteU8(done.early_terminated ? 1 : 0);
  writer.WriteU8(done.batched ? 1 : 0);
  return out;
}

std::vector<uint8_t> EncodeErrorPayload(StatusCode code,
                                        const std::string& message) {
  std::vector<uint8_t> out;
  ByteWriter writer(&out);
  writer.WriteU8(static_cast<uint8_t>(code));
  writer.WriteString(message);
  return out;
}

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderSize + payload.size());
  AppendFrameHeader(type, static_cast<uint32_t>(payload.size()), &out);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

// ---- Decoders --------------------------------------------------------------

Result<NetRequest> DecodeRequest(const uint8_t* data, size_t size) {
  SpanReader reader(MemorySpan(data, size));
  NetRequest request;
  uint8_t flags = 0;
  if (!Take(reader.ReadString(), &request.query_text) ||
      !Take(reader.ReadU64(), &request.max_rows) ||
      !Take(reader.ReadU8(), &flags)) {
    return Truncated("request");
  }
  if (reader.remaining() != 0) return Trailing("request");
  if ((flags & ~(kReqFlagStreaming | kReqFlagNoBatch)) != 0) {
    return Status::ParseError("request carries unknown flag bits");
  }
  if (request.query_text.empty()) {
    return Status::ParseError("request query text is empty");
  }
  request.streaming = (flags & kReqFlagStreaming) != 0;
  request.allow_batch = (flags & kReqFlagNoBatch) == 0;
  return request;
}

Result<std::vector<std::string>> DecodeHeaderPayload(const uint8_t* data,
                                                     size_t size) {
  SpanReader reader(MemorySpan(data, size));
  uint32_t count = 0;
  if (!Take(reader.ReadU32(), &count)) return Truncated("header");
  // Each name costs at least its 4-byte length prefix; a count the payload
  // cannot back is rejected before any allocation.
  if (count > reader.remaining() / 4) {
    return Status::ParseError("header column count exceeds payload capacity");
  }
  std::vector<std::string> names(count);
  for (std::string& name : names) {
    if (!Take(reader.ReadString(), &name)) return Truncated("header");
  }
  if (reader.remaining() != 0) return Trailing("header");
  return names;
}

Result<std::vector<ResultRow>> DecodeRowsPayload(const uint8_t* data,
                                                 size_t size) {
  SpanReader reader(MemorySpan(data, size));
  uint32_t count = 0;
  if (!Take(reader.ReadU32(), &count)) return Truncated("rows");
  // A row costs at least doc + sid + the two element counts (12 bytes).
  if (count > reader.remaining() / 12) {
    return Status::ParseError("rows count exceeds payload capacity");
  }
  std::vector<ResultRow> rows(count);
  for (ResultRow& row : rows) {
    uint16_t num_values = 0;
    uint16_t num_scores = 0;
    if (!Take(reader.ReadU32(), &row.doc) ||
        !Take(reader.ReadU32(), &row.sid) ||
        !Take(reader.ReadU16(), &num_values) ||
        !Take(reader.ReadU16(), &num_scores)) {
      return Truncated("rows");
    }
    if (num_values > reader.remaining() / 4 ||
        num_scores > reader.remaining() / 8) {
      return Status::ParseError("row element count exceeds payload capacity");
    }
    row.values.resize(num_values);
    for (std::string& value : row.values) {
      if (!Take(reader.ReadString(), &value)) return Truncated("rows");
    }
    row.scores.resize(num_scores);
    for (double& score : row.scores) {
      uint64_t bits = 0;
      if (!Take(reader.ReadU64(), &bits)) return Truncated("rows");
      score = std::bit_cast<double>(bits);
    }
  }
  if (reader.remaining() != 0) return Trailing("rows");
  return rows;
}

Result<NetDone> DecodeDonePayload(const uint8_t* data, size_t size) {
  SpanReader reader(MemorySpan(data, size));
  NetDone done;
  uint8_t early = 0;
  uint8_t batched = 0;
  if (!Take(reader.ReadU64(), &done.rows) ||
      !Take(reader.ReadU64(), &done.candidate_sentences) ||
      !Take(reader.ReadU64(), &done.scanned_candidates) ||
      !Take(reader.ReadU8(), &early) || !Take(reader.ReadU8(), &batched)) {
    return Truncated("done");
  }
  if (reader.remaining() != 0) return Trailing("done");
  if (early > 1 || batched > 1) {
    return Status::ParseError("done payload has non-boolean flag byte");
  }
  done.early_terminated = early == 1;
  done.batched = batched == 1;
  return done;
}

Result<NetError> DecodeErrorPayload(const uint8_t* data, size_t size) {
  SpanReader reader(MemorySpan(data, size));
  uint8_t code = 0;
  NetError error;
  if (!Take(reader.ReadU8(), &code) ||
      !Take(reader.ReadString(), &error.message)) {
    return Truncated("error");
  }
  if (reader.remaining() != 0) return Trailing("error");
  if (!ValidStatusCode(code) || code == static_cast<uint8_t>(StatusCode::kOk)) {
    return Status::ParseError("error payload carries invalid status code " +
                              std::to_string(code));
  }
  error.code = static_cast<StatusCode>(code);
  return error;
}

}  // namespace net
}  // namespace koko
