// HelixClient: asynchronous multiplexing client for the HELIX wire
// protocol.
//
// One client is one TCP connection carrying many in-flight calls at once:
// requests are framed and sent as they arrive (serialized by a send
// mutex), a receiver thread matches replies to pending calls by request
// id, and completions are delivered through callbacks — the server
// answers out of order when its pool finishes out of order, and the
// multiplexing makes that a feature instead of a protocol violation. The
// blocking methods (OpenSession, RunIteration, ...) are thin wrappers
// that issue one async call and wait, so the classic
// one-call-at-a-time usage reads exactly as before; a driver simulating
// K users still opens K clients (one user's edit-and-run loop per
// connection), while a pipelining driver issues K calls on one.
//
// Remote failures come back as the same Status codes the in-process
// SessionService would produce (message prefixed "remote: "); transport
// failures surface as IOError/Corruption. Any transport or framing error
// poisons the connection: every pending call fails with the same status,
// and subsequent calls fail immediately — after a framing error there is
// no trustworthy reply matching.
#ifndef HELIX_NET_CLIENT_H_
#define HELIX_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/result.h"
#include "core/version_manager.h"
#include "net/frame.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/session_service.h"

namespace helix {
namespace net {

/// See the file comment. Thread safety: every method is safe from any
/// thread; async completions run on the client's receiver thread (submit
/// failures may complete on the caller's thread) — callbacks must not
/// block it on another reply, and must not destroy the client. Ownership:
/// owns its connection and receiver thread; Close() ends the connection
/// (without joining, so it is safe from a callback), destruction joins.
class HelixClient {
 public:
  /// Completion of one raw call: the reply payload (its leading status
  /// still encoded), or the transport error that ended it.
  using ReplyCallback = std::function<void(Result<std::string>)>;

  static Result<std::unique_ptr<HelixClient>> Connect(
      const std::string& host, int port,
      uint32_t max_payload_bytes = kDefaultMaxPayloadBytes);

  ~HelixClient();

  // --- asynchronous interface ---------------------------------------------

  /// Issues one call without waiting: registers the pending reply, frames
  /// and sends the request, returns. `done` fires exactly once — with the
  /// reply payload when it arrives, or with the error that ended the
  /// call (send failure, connection poisoned, Close).
  void CallAsync(Opcode opcode, std::string payload, ReplyCallback done);

  void RunIterationAsync(
      uint64_t session_id, const core::WorkflowSpec& spec,
      const std::string& description, core::ChangeCategory category,
      std::function<void(Result<RemoteIterationResult>)> done);
  void GetCountersAsync(
      uint64_t session_id,
      std::function<void(Result<service::SessionCounters>)> done);

  // --- blocking wrappers --------------------------------------------------

  /// Registers a server-side session and returns its id (valid for this
  /// server's lifetime, usable from any connection).
  Result<uint64_t> OpenSession(const std::string& name);

  /// Retires a server-side session; its counters stay in the service
  /// aggregate. The server also closes sessions opened by a connection
  /// when that connection drops.
  Status CloseSession(uint64_t session_id);

  /// Runs one iteration of `session_id` remotely. The spec is resolved
  /// into a workflow on the server; the reply carries the iteration
  /// summary and per-output fingerprints (payloads stay server-side).
  Result<RemoteIterationResult> RunIteration(uint64_t session_id,
                                             const core::WorkflowSpec& spec,
                                             const std::string& description,
                                             core::ChangeCategory category);

  /// Counter snapshot of one session, or of the whole service when
  /// `session_id` is 0.
  Result<service::SessionCounters> GetCounters(uint64_t session_id);

  /// Pulls one materialized output out of the server's store by the
  /// executor signature a RunIteration reply carried (RemoteOutput::
  /// signature). NotFound if the store has since evicted it. The server
  /// writes the reply zero-copy (spans over the stored columns + writev)
  /// unless configured otherwise; the bytes received are identical either
  /// way.
  Result<dataflow::DataCollection> FetchOutput(uint64_t signature);

  /// Service-wide metrics snapshot as a JSON document (the same text a
  /// local MetricsRegistry::SnapshotJson() would produce server-side).
  Result<std::string> GetMetricsJson();

  /// Server trace buffer rendered as Chrome trace-event JSON, loadable
  /// in Perfetto / chrome://tracing.
  Result<std::string> GetTraceJson();

  /// Asks the server to shut down. OK means the server acked and will
  /// drain; the connection is unusable afterwards.
  Status Shutdown();

  /// Closes the connection; pending calls fail, subsequent calls fail
  /// with IOError. Safe to call from another thread while a blocking call
  /// is stuck on an unresponsive server — the stuck call is unblocked
  /// (and fails) rather than holding Close hostage.
  void Close();

 private:
  HelixClient(std::unique_ptr<TcpConnection> conn, uint32_t max_payload_bytes)
      : conn_(std::move(conn)), max_payload_bytes_(max_payload_bytes) {}

  /// Issues one async call and blocks for its completion.
  Result<std::string> Call(Opcode opcode, std::string payload);
  /// Matches replies to pending calls until the stream ends or breaks,
  /// then fails whatever is left.
  void ReceiverLoop(std::shared_ptr<TcpConnection> conn);
  /// Fails every pending call with `status` and poisons the client so
  /// later CallAsyncs fail immediately (no receiver is left to answer
  /// them).
  void FailAllPending(const Status& status);
  /// Takes the connection out of service; the shared handle keeps it
  /// alive for a send (or the receiver's read) still using it.
  void DropConnection(const std::shared_ptr<TcpConnection>& expected);

  std::mutex send_mu_;  // serializes request writes onto the stream
  /// Guards only the conn_ pointer, never held across I/O — Close() must
  /// be able to reach the socket while the receiver is blocked in recv.
  std::mutex conn_mu_;
  std::shared_ptr<TcpConnection> conn_;
  const uint32_t max_payload_bytes_;
  std::thread receiver_;
  /// Pending calls by request id, plus the sticky first transport error
  /// (OK while the stream is healthy).
  std::mutex pending_mu_;
  std::unordered_map<uint64_t, ReplyCallback> pending_;
  Status transport_error_;
  std::atomic<uint64_t> next_request_id_{1};
};

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_CLIENT_H_
