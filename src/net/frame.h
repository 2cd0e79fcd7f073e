#ifndef KOKO_NET_FRAME_H_
#define KOKO_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "koko/engine.h"
#include "util/status.h"

namespace koko {
namespace net {

class Socket;

/// \file The KOKO wire protocol: a length-prefixed binary framing over one
/// byte stream (docs/WIRE_PROTOCOL.md is the normative description).
///
/// Every frame is an 8-byte header followed by `payload_len` payload bytes:
///
///     offset  size  field
///     0       2     magic        0x4B4F ("KO"), little-endian u16
///     2       1     version      kWireVersion (1)
///     3       1     type         FrameType
///     4       4     payload_len  little-endian u32, <= kMaxFramePayload
///
/// All integers are little-endian; doubles travel as the raw IEEE-754 bit
/// pattern in a u64. Bytes are written and read through storage/serde.h's
/// ByteWriter and SpanReader. The codec is pure (bytes in, values out;
/// ReadFrame alone touches a socket) so the adversarial suites
/// (tests/net_protocol_test.cpp, net_fuzz_test.cpp) can hammer it without
/// sockets: every decoder bounds-checks each read against
/// the payload it was handed, rejects trailing garbage, and caps every
/// element count by the bytes that could possibly back it, so no input —
/// truncated, oversized, or random — reads out of bounds or allocates
/// unboundedly.
///
/// A conversation is: client sends one kRequest frame, server answers with
/// kHeader, zero or more kRows, then one terminal kDone — or a single
/// kError at any point. The connection is persistent: after a terminal
/// frame the client may send its next request on the same stream.

inline constexpr uint16_t kWireMagic = 0x4B4F;  // "KO"
inline constexpr uint8_t kWireVersion = 1;

/// Hard ceiling on a frame payload. Large result sets are chunked into
/// many kRows frames well below this; a length prefix above it is treated
/// as a protocol violation (likely garbage or an attack), not an
/// allocation request.
inline constexpr uint32_t kMaxFramePayload = 8u * 1024 * 1024;

/// Rows per kRows frame the server packs before flushing (streaming
/// responses flush partial chunks as the engine produces rows).
inline constexpr size_t kRowsPerFrame = 256;

enum class FrameType : uint8_t {
  kRequest = 1,  ///< client -> server: one query + options
  kHeader = 2,   ///< server -> client: output column names
  kRows = 3,     ///< server -> client: a chunk of result rows
  kDone = 4,     ///< server -> client: terminal status + stats
  kError = 5,    ///< server -> client: terminal error (code + message)
};

/// Frame header in decoded form.
struct FrameHeader {
  FrameType type = FrameType::kError;
  uint32_t payload_len = 0;
};

inline constexpr size_t kFrameHeaderSize = 8;

/// Request flag bits (NetRequest::flags on the wire). Bit 1 is reserved:
/// a request that sets it is rejected like any other unknown bit.
inline constexpr uint8_t kReqFlagStreaming = 1u << 0;  ///< chunk rows early
inline constexpr uint8_t kReqFlagNoBatch = 1u << 2;    ///< opt out of coalescing

/// One query request as it travels the wire.
struct NetRequest {
  std::string query_text;
  /// 0 = unlimited; otherwise the per-request row cap (EngineOptions::
  /// max_rows with streaming early termination).
  uint64_t max_rows = 0;
  bool streaming = false;
  /// When false the server must not coalesce this request into a batch
  /// group (it still executes normally).
  bool allow_batch = true;
};

/// Terminal stats frame of a successful response.
struct NetDone {
  uint64_t rows = 0;
  uint64_t candidate_sentences = 0;
  uint64_t scanned_candidates = 0;
  bool early_terminated = false;
  /// True when this response was served as a follower of a batch group
  /// (the rows came from another request's execution — byte-identical by
  /// the coalescing contract, see docs/WIRE_PROTOCOL.md).
  bool batched = false;
};

/// Terminal error frame.
struct NetError {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

// ---- Header ----------------------------------------------------------------

/// Appends the 8-byte frame header for `type`/`payload_len` to `out`.
/// `payload_len` must already respect kMaxFramePayload (callers build the
/// payload first).
void AppendFrameHeader(FrameType type, uint32_t payload_len,
                       std::vector<uint8_t>* out);

/// Decodes and validates an 8-byte header: magic, version, known type,
/// payload_len <= kMaxFramePayload. `data` must hold at least
/// kFrameHeaderSize bytes.
Result<FrameHeader> DecodeFrameHeader(const uint8_t* data, size_t size);

/// The end of a connection that reads a frame: a server receives only
/// kRequest frames, a client every type but kRequest.
enum class FrameReader : uint8_t { kServer, kClient };

/// Reads one frame from `socket`: the header, validated by
/// DecodeFrameHeader and checked against `reader`, then its payload into
/// `payload`. A bad header or a frame `reader` does not receive fails with
/// ParseError before any payload byte is read (the stream cannot be
/// resynchronized); a closed or broken socket returns ReadFully's error.
Result<FrameHeader> ReadFrame(Socket* socket, FrameReader reader,
                              std::vector<uint8_t>* payload);

// ---- Payload encoders ------------------------------------------------------

std::vector<uint8_t> EncodeRequest(const NetRequest& request);
std::vector<uint8_t> EncodeHeaderPayload(
    const std::vector<std::string>& output_names);
/// Encodes rows[begin, begin+count) as one kRows payload.
std::vector<uint8_t> EncodeRowsPayload(const std::vector<ResultRow>& rows,
                                       size_t begin, size_t count);
std::vector<uint8_t> EncodeDonePayload(const NetDone& done);
std::vector<uint8_t> EncodeErrorPayload(StatusCode code,
                                        const std::string& message);

/// Convenience: header + payload as one contiguous frame.
std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload);

// ---- Payload decoders ------------------------------------------------------

/// Every decoder consumes exactly `size` bytes or fails: short payloads,
/// element counts that cannot fit, and trailing bytes are all ParseError.
Result<NetRequest> DecodeRequest(const uint8_t* data, size_t size);
Result<std::vector<std::string>> DecodeHeaderPayload(const uint8_t* data,
                                                     size_t size);
Result<std::vector<ResultRow>> DecodeRowsPayload(const uint8_t* data,
                                                 size_t size);
Result<NetDone> DecodeDonePayload(const uint8_t* data, size_t size);
Result<NetError> DecodeErrorPayload(const uint8_t* data, size_t size);

}  // namespace net
}  // namespace koko

#endif  // KOKO_NET_FRAME_H_
