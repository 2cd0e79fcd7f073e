#include "net/server.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "koko/parser.h"

namespace koko {
namespace net {

namespace {

/// Builds the RunOverrides a wire request maps to. max_rows 0 means "no
/// override" — the service default (typically unlimited) applies.
QueryService::RunOverrides OverridesFor(const NetRequest& request) {
  QueryService::RunOverrides overrides;
  if (request.max_rows > 0) {
    overrides.max_rows = static_cast<size_t>(request.max_rows);
  }
  return overrides;
}

}  // namespace

KokoServer::KokoServer(QueryService* service, const Options& options)
    : service_(service), options_(options) {}

KokoServer::~KokoServer() { Stop(); }

Status KokoServer::Start() {
  auto listener = ListenSocket::Listen(options_.port, options_.loopback_only);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  port_ = listener_.port();
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void KokoServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  // Drain order: reject queued admissions first (in-flight queries finish
  // and their responses flush), then take down the sockets so blocked
  // reads return and the threads can observe stopping_.
  service_->admission().Shutdown();
  listener_.Unblock();
  {
    MutexLock lock(mu_);
    for (auto& conn : conns_) conn->socket.Unblock();
  }
  if (acceptor_.joinable()) acceptor_.join();
  // After the acceptor exits no new conns are created; joining outside the
  // lock keeps connection-thread exits (which briefly take mu_) deadlock
  // free.
  std::list<std::unique_ptr<Conn>> conns;
  {
    MutexLock lock(mu_);
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

KokoServer::Stats KokoServer::stats() const {
  MutexLock lock(mu_);
  Stats stats;
  stats.connections_accepted = connections_accepted_;
  stats.requests = requests_;
  stats.responses_ok = responses_ok_;
  stats.responses_error = responses_error_;
  stats.protocol_errors = protocol_errors_;
  stats.batch = batcher_.stats();
  return stats;
}

void KokoServer::ReapFinished() {
  std::list<std::unique_ptr<Conn>> finished;
  {
    MutexLock lock(mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
      if ((*it)->done) {
        finished.push_back(std::move(*it));
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void KokoServer::AcceptLoop() {
  while (true) {
    auto accepted = listener_.Accept();
    {
      MutexLock lock(mu_);
      if (stopping_) return;  // Unblock() during Stop(): normal exit.
    }
    if (!accepted.ok()) return;  // listener failed outside shutdown
    ReapFinished();
    auto conn = std::make_unique<Conn>();
    conn->socket = std::move(*accepted);
    Conn* raw = conn.get();
    MutexLock lock(mu_);
    if (stopping_) return;  // raced Stop(); conn closes via unique_ptr
    ++connections_accepted_;
    conns_.push_back(std::move(conn));
    raw->thread = std::thread([this, raw] { ServeConnection(raw); });
  }
}

bool KokoServer::SendError(Socket* socket, StatusCode code,
                           const std::string& message) {
  const std::vector<uint8_t> frame =
      EncodeFrame(FrameType::kError, EncodeErrorPayload(code, message));
  {
    MutexLock lock(mu_);
    ++responses_error_;
  }
  return socket->WriteAll(frame).ok();
}

void KokoServer::ServeConnection(Conn* conn) {
  std::vector<uint8_t> payload;
  while (true) {
    {
      MutexLock lock(mu_);
      if (stopping_) break;
    }
    auto frame = ReadFrame(&conn->socket, FrameReader::kServer, &payload);
    Result<NetRequest> request =
        frame.ok() ? DecodeRequest(payload.data(), payload.size())
                   : Result<NetRequest>(frame.status());
    if (!request.ok()) {
      // Clean EOF, peer reset and Stop()'s Unblock just end the
      // connection. A bad header cannot be resynchronized, and a request
      // that does not decode means the peer speaks garbage: answer either
      // with one error frame and close.
      if (request.status().code() == StatusCode::kParseError) {
        {
          MutexLock lock(mu_);
          ++protocol_errors_;
        }
        SendError(&conn->socket, StatusCode::kParseError,
                  request.status().message());
      }
      break;
    }
    if (!HandleRequest(conn, *request)) break;
  }
  // Close under mu_: Stop() calls Unblock() on this socket while holding
  // it, so the descriptor never changes under a concurrent shutdown.
  MutexLock lock(mu_);
  conn->socket.Close();
  conn->done = true;
}

bool KokoServer::HandleRequest(Conn* conn, const NetRequest& request) {
  {
    MutexLock lock(mu_);
    ++requests_;
  }
  auto parsed = ParseQuery(request.query_text);
  if (!parsed.ok()) {
    // A syntactically bad query is the client's problem, not the
    // connection's: answer with the parse error and keep serving.
    return SendError(&conn->socket, parsed.status().code(),
                     parsed.status().message());
  }
  const Query& query = *parsed;

  // The header frame precedes execution: output names are a pure function
  // of the parsed query (compile copies query.outputs verbatim), and the
  // streaming path needs them on the wire before the first row chunk.
  std::vector<std::string> output_names;
  output_names.reserve(query.outputs.size());
  for (const auto& spec : query.outputs) output_names.push_back(spec.var);
  if (!conn->socket
           .WriteAll(EncodeFrame(FrameType::kHeader,
                                 EncodeHeaderPayload(output_names)))
           .ok()) {
    return false;
  }

  const QueryService::RunOverrides overrides = OverridesFor(request);

  // Streaming leaders flush row chunks from inside the engine's sink;
  // write failures must not abort the query (a batch group may be sharing
  // this execution), so the sink latches the failure and goes quiet.
  bool write_failed = false;
  std::vector<ResultRow> chunk;
  auto flush_chunk = [&]() {
    if (write_failed || chunk.empty()) return;
    const std::vector<uint8_t> frame = EncodeFrame(
        FrameType::kRows, EncodeRowsPayload(chunk, 0, chunk.size()));
    if (!conn->socket.WriteAll(frame).ok()) write_failed = true;
    chunk.clear();
  };
  RowSink sink;
  if (request.streaming) {
    sink = [&](const ResultRow& row) {
      if (write_failed) return;
      chunk.push_back(row);
      if (chunk.size() >= kRowsPerFrame) flush_chunk();
    };
  }

  bool follower = false;
  std::shared_ptr<const Result<QueryResult>> shared;
  auto execute = [&]() {
    return service_->Run(query, overrides, sink);
  };
  if (request.allow_batch) {
    const uint64_t fingerprint =
        RequestFingerprint(request.query_text, request.max_rows);
    BatchExecutor::Outcome outcome = batcher_.Run(fingerprint, execute);
    shared = std::move(outcome.result);
    follower = outcome.follower;
  } else {
    shared = std::make_shared<const Result<QueryResult>>(execute());
  }
  const Result<QueryResult>& result = *shared;

  if (!result.ok()) {
    return SendError(&conn->socket, result.status().code(),
                     result.status().message());
  }
  if (request.streaming && !follower) {
    flush_chunk();  // the tail chunk below kRowsPerFrame
  } else {
    // Non-streaming responses and batch followers (whose rows come from
    // the leader's execution) send the complete row set in chunks.
    const std::vector<ResultRow>& rows = result->rows;
    for (size_t begin = 0; begin < rows.size() && !write_failed;
         begin += kRowsPerFrame) {
      const size_t count = std::min(kRowsPerFrame, rows.size() - begin);
      const std::vector<uint8_t> frame =
          EncodeFrame(FrameType::kRows, EncodeRowsPayload(rows, begin, count));
      if (!conn->socket.WriteAll(frame).ok()) write_failed = true;
    }
  }
  if (write_failed) return false;

  NetDone done;
  done.rows = result->rows.size();
  done.candidate_sentences = result->candidate_sentences;
  done.scanned_candidates = result->scanned_candidates;
  done.early_terminated = result->early_terminated;
  done.batched = follower;
  if (!conn->socket
           .WriteAll(EncodeFrame(FrameType::kDone, EncodeDonePayload(done)))
           .ok()) {
    return false;
  }
  MutexLock lock(mu_);
  ++responses_ok_;
  return true;
}

}  // namespace net
}  // namespace koko
