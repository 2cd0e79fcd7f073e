#ifndef KOKO_NET_CLIENT_H_
#define KOKO_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"

namespace koko {
namespace net {

/// One fully-received wire response, reassembled from frames.
struct WireResult {
  /// OK for a kDone-terminated response; the server's error for kError.
  Status status;
  std::vector<std::string> output_names;
  std::vector<ResultRow> rows;
  NetDone done;
  /// Row chunks received before the terminal frame (>= 1 per kRows frame;
  /// streaming responses typically deliver several).
  size_t row_frames = 0;
};

/// \brief Blocking client for the KOKO wire protocol.
///
/// One connection, sequential request/response — the shape the tests and
/// the bench's closed-loop workers need. Validates every received frame as
/// strictly as the server validates requests: bad magic, oversized
/// lengths, or out-of-order frames fail the call instead of being
/// tolerated (the client side of the parity net must not paper over
/// server framing bugs).
class KokoClient {
 public:
  /// Connects to 127.0.0.1:port. `recv_timeout_seconds` bounds every
  /// blocking read so a wedged server fails a test instead of hanging it.
  static Result<KokoClient> Connect(uint16_t port,
                                    int recv_timeout_seconds = 30);

  KokoClient() = default;
  KokoClient(KokoClient&&) noexcept = default;
  KokoClient& operator=(KokoClient&&) noexcept = default;

  bool valid() const { return socket_.valid(); }

  /// Sends one request and reads frames through the terminal kDone/kError.
  /// A transport or framing failure returns its error; a server-reported
  /// error returns OK at the transport level with WireResult::status
  /// carrying the server's code (the caller distinguishes "the wire broke"
  /// from "the server said no").
  Result<WireResult> Query(const NetRequest& request);

  /// Sends raw bytes verbatim (fuzzing hook; no framing added).
  Status SendRaw(const std::vector<uint8_t>& bytes);

  /// Reads one frame (header + payload). Used by fuzz tests to observe
  /// how the server answers garbage: expect a kError frame or a closed
  /// connection (NotFound/IoError), never a hang.
  Result<std::pair<FrameHeader, std::vector<uint8_t>>> ReadFrame();

 private:
  explicit KokoClient(Socket socket) : socket_(std::move(socket)) {}

  Socket socket_;
};

}  // namespace net
}  // namespace koko

#endif  // KOKO_NET_CLIENT_H_
