// HelixServer: the SessionService behind a TCP wire.
//
// One server owns one service::SessionService (shared store, stats
// registry, thread pool, in-flight table, background writer) and serves
// OpenSession / RunIteration / GetCounters / FetchOutput / CloseSession /
// Shutdown over the framing protocol (net/frame.h). The transport is a
// small fixed set of epoll I/O threads (net/event_loop.h) driving every
// connection — nonblocking reads into per-connection buffers, incremental
// frame decoding, and buffered outbound queues flushed on write
// readiness. Thread count is io_threads + the service pool, independent
// of the connection count.
//
// Each valid request is dispatched onto the service's *shared*
// ThreadPool — concurrently executing iterations are bounded by the pool,
// not the connection count — and replies are keyed to requests by
// request id, so one connection may pipeline. FetchOutput replies are
// queued as a span list over the stored columns' own buffers (zero-copy:
// the payload is never flattened into a contiguous reply buffer).
//
// Backpressure is explicit: past max_inflight_per_connection /
// max_inflight_total dispatched-but-unanswered requests, further frames
// are answered immediately with ResourceExhausted (counted in
// server.requests_shed) and the connection survives. A peer that stops
// reading its replies is torn down when its outbound queue exceeds
// max_outbound_queue_bytes. Connection losses are classified:
// server.reply_timeouts counts slow-reader kills, server.reply_drops
// counts peers that vanished (resets, torn streams).
//
// Session lifecycle: OpenSession registers a service session and ties it
// to the connection that opened it; CloseSession (or the connection
// dropping, or server shutdown) retires it. Retired sessions fold their
// counters into the service aggregate, so GetCounters(0) keeps reporting
// the work of clients that have since disconnected.
//
// A malformed frame (bad checksum, oversized length, torn bytes) gets a
// best-effort error reply and the connection is dropped — the stream can
// no longer be trusted — while every other connection keeps serving. A
// well-framed but unknown opcode is answered with InvalidArgument and the
// connection stays up.
//
// Shutdown/drain ordering (Stop): stop the event loop (joins its threads
// and tears down every connection; no new requests) -> close the
// listener -> wait for in-flight handlers to finish -> destroy the
// service (which drains the pool and writer, then persists stats). A
// Shutdown RPC does not stop the server from inside a pool task (that
// would deadlock the drain); it is acked — and the ack flushed to the
// kernel — before the request is surfaced through WaitForShutdownRequest
// for the owner to act on.
#ifndef HELIX_NET_SERVER_H_
#define HELIX_NET_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/session_service.h"

namespace helix {
namespace net {

struct ServerOptions {
  /// Listen address: numeric IPv4 or a resolvable hostname (empty binds
  /// the wildcard address).
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port from HelixServer::port().
  int port = 0;
  /// Bound on one frame's payload in either direction: a larger request
  /// is rejected, and a reply that would exceed it (a big FetchOutput) is
  /// answered with ResourceExhausted instead of sent.
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// Event-loop I/O threads; does not grow with the connection count.
  int io_threads = 2;
  /// Backpressure limits: dispatched-but-unanswered requests beyond
  /// either bound are shed with ResourceExhausted.
  int max_inflight_per_connection = 64;
  int64_t max_inflight_total = 1024;
  /// Slow-reader defense: tear a connection down when its queued unsent
  /// replies exceed this many bytes.
  int64_t max_outbound_queue_bytes = 64ll << 20;
  /// Options for the owned SessionService.
  service::ServiceOptions service;
};

/// See the file comment. Thread safety: port(), service(), Stop(), and
/// WaitForShutdownRequest() are safe from any thread; Stop() is
/// idempotent. Ownership: the server owns the listener, the event loop,
/// and the SessionService; destruction runs Stop().
class HelixServer {
 public:
  static Result<std::unique_ptr<HelixServer>> Start(
      const ServerOptions& options, core::WorkflowResolver resolver);

  ~HelixServer();

  HelixServer(const HelixServer&) = delete;
  HelixServer& operator=(const HelixServer&) = delete;

  int port() const { return listener_->port(); }

  /// The owned service; nullptr once Stop() has torn it down. The pointer
  /// is only as durable as the server's running state — do not cache it
  /// across a concurrent Stop()/destruction.
  service::SessionService* service() {
    std::lock_guard<std::mutex> lock(state_mu_);
    return service_.get();
  }

  /// Live client connections (for tests and introspection).
  int64_t num_connections() const;

  /// Blocks until a client's Shutdown RPC arrives or Stop() is called.
  void WaitForShutdownRequest();

  /// Stops serving: see the file comment for the drain ordering. After
  /// Stop() the service is destroyed and service() returns nullptr.
  void Stop();

 private:
  /// The server's state for one event-loop connection: a weak handle to
  /// the loop-owned Conn replies are queued on, and the sessions the
  /// connection opened (closed when it drops). Holding the loop Conn
  /// weakly keeps `Conn::user -> ClientConn` from becoming a reference
  /// cycle: when the loop tears the connection down, queued handler tasks
  /// see an expired handle and drop their replies.
  struct ClientConn {
    std::weak_ptr<EventLoop::Conn> loop_conn;
    std::mutex sessions_mu;
    std::vector<uint64_t> session_ids;
  };

  HelixServer(ServerOptions options, core::WorkflowResolver resolver)
      : options_(std::move(options)), resolver_(std::move(resolver)) {}

  // Event-loop callbacks (run on the loop threads).
  void OnLoopAccept(const std::shared_ptr<EventLoop::Conn>& conn);
  void OnLoopFrame(const std::shared_ptr<EventLoop::Conn>& conn,
                   Frame&& frame, int64_t decode_micros);
  void OnLoopHangup(const std::shared_ptr<EventLoop::Conn>& conn,
                    HangupReason reason);

  /// Bumps the drain gauge and schedules HandleRequest on the service
  /// pool. When the pool refuses the task (shutdown) the request is
  /// answered with FailedPrecondition instead.
  void DispatchFrame(const std::shared_ptr<ClientConn>& conn, Frame frame);
  /// Runs on a pool worker: decodes, executes, and answers one request.
  /// `enqueue_micros` is the dispatch timestamp (steady clock), feeding
  /// the `server.queue_micros` histogram.
  void HandleRequest(const std::shared_ptr<ClientConn>& connection,
                     Frame frame, int64_t enqueue_micros);
  std::string HandleOpenSession(ClientConn* connection, const Frame& frame);
  std::string HandleCloseSession(ClientConn* connection, const Frame& frame);
  std::string HandleRunIteration(const Frame& frame);
  std::string HandleGetCounters(const Frame& frame);
  std::string HandleGetMetrics(const Frame& frame);
  std::string HandleGetTrace(const Frame& frame);
  /// Unlike the handlers above, FetchOutput delivers its own reply: it
  /// hands the stored DataCollection to the loop as the pin keeping its
  /// borrowed spans alive until flushed.
  void HandleFetchOutput(ClientConn* connection, const Frame& frame,
                         int64_t handler_start);
  /// Queue one flat reply frame / one span-list reply frame on the
  /// connection (a no-op once the loop tore it down) and account it.
  /// `pin` stays alive until the span bytes reach the kernel. A reply
  /// past max_payload_bytes goes out as a ResourceExhausted error reply.
  void SendReply(ClientConn* connection, uint64_t request_id,
                 std::string payload);
  void SendReplySpans(ClientConn* connection, uint64_t request_id,
                      std::unique_ptr<SpanWriter> payload,
                      std::shared_ptr<const void> pin);
  /// Retires every session this connection opened (close-on-disconnect).
  void CloseConnectionSessions(ClientConn* connection);
  /// Folds one queued reply into the traffic counters and the
  /// reply_write histogram (enqueue cost; the loop flushes later).
  void AccountReplyOut(size_t payload_bytes, int64_t enqueue_start);
  /// ResourceExhausted when a reply payload exceeds max_payload_bytes.
  Status CheckReplySize(size_t payload_bytes) const;

  const ServerOptions options_;
  const core::WorkflowResolver resolver_;
  std::unique_ptr<TcpListener> listener_;
  std::unique_ptr<service::SessionService> service_;
  std::unique_ptr<EventLoop> event_loop_;

  // Request-phase histograms and traffic counters, registered in the
  // service's metrics registry at Start. The registry outlives Stop()'s
  // service teardown window only as part of the service, so handlers only
  // touch these while holding a live ClientConn dispatched before drain.
  obs::Histogram* decode_micros_ = nullptr;      // frame parse
  obs::Histogram* queue_micros_ = nullptr;       // dispatch -> handler start
  obs::Histogram* execute_micros_ = nullptr;     // handler body
  obs::Histogram* reply_write_micros_ = nullptr; // reply enqueue
  // RunIteration's output fingerprints (booked in the client's wire time)
  obs::Histogram* reply_fingerprint_micros_ = nullptr;
  obs::Counter* frames_in_total_ = nullptr;
  obs::Counter* bytes_in_total_ = nullptr;
  obs::Counter* frames_out_total_ = nullptr;
  obs::Counter* bytes_out_total_ = nullptr;
  obs::Counter* requests_total_ = nullptr;
  /// Backpressure and failure-classification counters (always registered,
  /// so telemetry checks can assert their presence even at zero).
  obs::Counter* requests_shed_ = nullptr;
  obs::Counter* reply_drops_ = nullptr;
  obs::Counter* reply_timeouts_ = nullptr;

  // Outstanding handler tasks on the shared pool; Stop drains to zero
  // before destroying the service.
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  int64_t outstanding_ = 0;

  std::mutex state_mu_;
  std::condition_variable state_cv_;
  bool shutdown_requested_ = false;
  bool stopped_ = false;
};

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_SERVER_H_
