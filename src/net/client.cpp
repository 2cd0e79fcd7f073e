#include "net/client.h"

#include <utility>

namespace koko {
namespace net {

Result<KokoClient> KokoClient::Connect(uint16_t port,
                                       int recv_timeout_seconds) {
  auto socket = ConnectLoopback(port, recv_timeout_seconds);
  if (!socket.ok()) return socket.status();
  return KokoClient(std::move(*socket));
}

Status KokoClient::SendRaw(const std::vector<uint8_t>& bytes) {
  return socket_.WriteAll(bytes);
}

Result<std::pair<FrameHeader, std::vector<uint8_t>>> KokoClient::ReadFrame() {
  std::vector<uint8_t> header(kFrameHeaderSize);
  KOKO_RETURN_IF_ERROR(socket_.ReadFully(header.data(), header.size()));
  KOKO_ASSIGN_OR_RETURN(FrameHeader frame,
                        DecodeFrameHeader(header.data(), header.size()));
  std::vector<uint8_t> payload(frame.payload_len);
  if (frame.payload_len > 0) {
    KOKO_RETURN_IF_ERROR(socket_.ReadFully(payload.data(), payload.size()));
  }
  return std::make_pair(frame, std::move(payload));
}

Result<WireResult> KokoClient::Query(const NetRequest& request) {
  KOKO_RETURN_IF_ERROR(
      socket_.WriteAll(EncodeFrame(FrameType::kRequest,
                                   EncodeRequest(request))));
  WireResult result;
  bool saw_header = false;
  while (true) {
    KOKO_ASSIGN_OR_RETURN(auto frame, ReadFrame());
    const FrameHeader& header = frame.first;
    const std::vector<uint8_t>& payload = frame.second;
    switch (header.type) {
      case FrameType::kHeader: {
        if (saw_header) {
          return Status::ParseError("duplicate header frame in response");
        }
        KOKO_ASSIGN_OR_RETURN(
            result.output_names,
            DecodeHeaderPayload(payload.data(), payload.size()));
        saw_header = true;
        break;
      }
      case FrameType::kRows: {
        if (!saw_header) {
          return Status::ParseError("rows frame before header frame");
        }
        KOKO_ASSIGN_OR_RETURN(
            std::vector<ResultRow> rows,
            DecodeRowsPayload(payload.data(), payload.size()));
        ++result.row_frames;
        for (ResultRow& row : rows) result.rows.push_back(std::move(row));
        break;
      }
      case FrameType::kDone: {
        if (!saw_header) {
          return Status::ParseError("done frame before header frame");
        }
        KOKO_ASSIGN_OR_RETURN(result.done,
                              DecodeDonePayload(payload.data(),
                                                payload.size()));
        if (result.done.rows != result.rows.size()) {
          return Status::ParseError(
              "done frame row count disagrees with received rows");
        }
        result.status = Status::OK();
        return result;
      }
      case FrameType::kError: {
        KOKO_ASSIGN_OR_RETURN(NetError error,
                              DecodeErrorPayload(payload.data(),
                                                 payload.size()));
        result.status = Status(error.code, error.message);
        return result;
      }
      case FrameType::kRequest:
        return Status::ParseError("server sent a request frame");
    }
  }
}

}  // namespace net
}  // namespace koko
