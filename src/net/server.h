#ifndef KOKO_NET_SERVER_H_
#define KOKO_NET_SERVER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <thread>

#include "net/frame.h"
#include "net/socket.h"
#include "serve/batcher.h"
#include "serve/query_service.h"
#include "util/thread_annotations.h"

namespace koko {
namespace net {

/// \brief The network serving front end: a TCP server speaking the KOKO
/// wire protocol (net/frame.h, docs/WIRE_PROTOCOL.md) over one shared
/// QueryService.
///
/// Layering is strict: KokoServer owns sockets and frames, QueryService
/// owns everything else — admission control, the persistent score/plan
/// caches, and the engine over the (typically mmap'd) index. Every connection therefore shares the same caches and
/// the same admission bounds as in-process callers, and the wire adds no
/// execution semantics of its own: a served response is byte-identical to
/// `QueryService::Run` for the same request (the golden-digest contract,
/// tests/net_serve_test.cpp).
///
/// **Threading.** One acceptor thread plus one thread per live connection
/// (connections are long-lived and request-per-frame, so the per-thread
/// cost is a blocked read). Queries execute on connection threads through
/// `QueryService::Run` — a batch's on its leader's. Finished connection
/// threads are reaped on the next accept.
///
/// **Batch admission.** Concurrently-arriving requests whose execution
/// fingerprints match (query text bytes + row cap — RequestFingerprint,
/// serve/batcher.h) are grouped behind one execution:
/// one leader runs DPLI/plan/score once, followers wait and share the
/// leader's rows. Responses mark `batched` in the kDone frame. A request
/// opts out with kReqFlagNoBatch (NetRequest::allow_batch = false).
///
/// **Graceful shutdown.** Stop() (idempotent; also run by the destructor)
/// drains via the service's AdmissionQueue::Shutdown — queued waiters
/// reject with Unavailable, already-admitted queries finish and their
/// responses flush — then unblocks the listener and every connection
/// socket and joins all threads. A client mid-stream observes either its
/// complete response or a clean connection close, never a torn frame
/// (frames are written whole; see net_serve_test's
/// ShutdownWhileStreamingIsClean).
class KokoServer {
 public:
  struct Options {
    /// TCP port; 0 binds an ephemeral port (read back via port()).
    uint16_t port = 0;
    /// Bind 127.0.0.1 only (tests/benches); false binds INADDR_ANY.
    bool loopback_only = true;
  };

  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t requests = 0;        ///< Well-formed requests executed.
    uint64_t responses_ok = 0;    ///< kDone-terminated responses.
    uint64_t responses_error = 0; ///< kError-terminated responses.
    uint64_t protocol_errors = 0; ///< Malformed frames/payloads received.
    BatchExecutor::Stats batch;
  };

  /// `service` is borrowed and must outlive the server. Stop() shuts the
  /// service's admission queue down, so a service is dedicated to (at
  /// most) one server for its lifetime.
  KokoServer(QueryService* service, const Options& options);
  ~KokoServer();

  KokoServer(const KokoServer&) = delete;
  KokoServer& operator=(const KokoServer&) = delete;

  /// Binds, listens, and starts the acceptor. Fails on bind errors.
  Status Start();

  /// Graceful shutdown; safe to call twice. Blocks until every connection
  /// thread has exited.
  void Stop();

  /// Bound port (valid after Start()).
  uint16_t port() const { return port_; }

  Stats stats() const KOKO_EXCLUDES(mu_);

 private:
  struct Conn {
    Socket socket;
    std::thread thread;
    bool done = false;  ///< Set by the connection thread as it exits.
  };

  void AcceptLoop();
  void ServeConnection(Conn* conn);
  /// Executes one well-formed request and writes its response frames.
  /// Returns false when the connection should close (write failure).
  bool HandleRequest(Conn* conn, const NetRequest& request);
  /// Best-effort error frame; returns false when the write failed.
  bool SendError(Socket* socket, StatusCode code, const std::string& message);
  /// Reaps finished connection threads (joins and erases).
  void ReapFinished() KOKO_EXCLUDES(mu_);

  QueryService* service_;
  const Options options_;
  BatchExecutor batcher_;
  ListenSocket listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  bool started_ = false;
  bool stopped_ = false;

  mutable Mutex mu_;
  /// std::list: Conn addresses must be stable while their threads run.
  std::list<std::unique_ptr<Conn>> conns_ KOKO_GUARDED_BY(mu_);
  bool stopping_ KOKO_GUARDED_BY(mu_) = false;
  uint64_t connections_accepted_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t requests_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t responses_ok_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t responses_error_ KOKO_GUARDED_BY(mu_) = 0;
  uint64_t protocol_errors_ KOKO_GUARDED_BY(mu_) = 0;
};

}  // namespace net
}  // namespace koko

#endif  // KOKO_NET_SERVER_H_
