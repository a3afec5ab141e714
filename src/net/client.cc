#include "net/client.h"

#include <future>
#include <utility>
#include <vector>

namespace helix {
namespace net {

Result<std::unique_ptr<HelixClient>> HelixClient::Connect(
    const std::string& host, int port, uint32_t max_payload_bytes) {
  HELIX_ASSIGN_OR_RETURN(std::unique_ptr<TcpConnection> conn,
                         net::Connect(host, port));
  std::unique_ptr<HelixClient> client(
      new HelixClient(std::move(conn), max_payload_bytes));
  client->receiver_ = std::thread(
      [c = client.get(), handle = client->conn_]() {
        c->ReceiverLoop(handle);
      });
  return client;
}

HelixClient::~HelixClient() {
  Close();
  if (receiver_.joinable()) {
    receiver_.join();
  }
}

void HelixClient::CallAsync(Opcode opcode, std::string payload,
                            ReplyCallback done) {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    conn = conn_;
  }
  if (conn == nullptr) {
    done(Status::IOError("client is closed"));
    return;
  }
  Frame request;
  request.opcode = static_cast<uint8_t>(opcode);
  request.request_id = next_request_id_.fetch_add(1);
  request.payload = std::move(payload);
  Status poisoned = Status::OK();
  {
    // Register before sending: a reply can arrive (and the receiver look
    // it up) before the send call even returns. The sticky-error check
    // happens under the same lock as the insert, so a call can never slip
    // in after FailAllPending swept the table — it would hang forever
    // with no receiver left to answer it.
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (transport_error_.ok()) {
      pending_[request.request_id] = std::move(done);
    } else {
      poisoned = transport_error_;
    }
  }
  if (!poisoned.ok()) {
    done(poisoned);
    return;
  }
  Status sent;
  {
    std::lock_guard<std::mutex> send_lock(send_mu_);
    sent = WriteFrame(conn.get(), request);
  }
  if (!sent.ok()) {
    // This call's bytes may be partially on the wire: the stream position
    // is no longer trustworthy for anyone, so poison the connection. The
    // receiver (unblocked by the shutdown) fails the other pending calls;
    // this one is failed here — exactly once, whichever side erases it
    // from the table first.
    DropConnection(conn);
    ReplyCallback mine;
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      auto it = pending_.find(request.request_id);
      if (it != pending_.end()) {
        mine = std::move(it->second);
        pending_.erase(it);
      }
    }
    if (mine) {
      mine(sent);
    }
  }
}

void HelixClient::ReceiverLoop(std::shared_ptr<TcpConnection> conn) {
  while (true) {
    Result<Frame> reply = ReadFrame(conn.get(), max_payload_bytes_);
    Status failure = Status::OK();
    if (!reply.ok()) {
      // A clean server-side close surfaces as NotFound from ReadFrame;
      // for a client with calls in flight it is still a failure of those
      // calls.
      failure = reply.status().IsNotFound()
                    ? Status::IOError("connection closed by server")
                    : reply.status();
    } else if (reply->opcode != static_cast<uint8_t>(Opcode::kReply)) {
      failure = Status::Corruption(
          "server sent a non-reply frame (opcode " +
          std::to_string(reply->opcode) + ")");
    }
    if (failure.ok()) {
      ReplyCallback done;
      {
        std::lock_guard<std::mutex> lock(pending_mu_);
        auto it = pending_.find(reply->request_id);
        if (it != pending_.end()) {
          done = std::move(it->second);
          pending_.erase(it);
        }
      }
      if (done) {
        done(std::move(reply->payload));
        continue;
      }
      // A reply that matches no pending call means the stream is out of
      // step (e.g. the server answered a request id it salvaged from a
      // frame it could not fully parse); nothing after it can be trusted.
      failure = Status::Corruption(
          "reply id " + std::to_string(reply->request_id) +
          " matches no pending request");
    }
    DropConnection(conn);
    FailAllPending(failure);
    return;
  }
}

void HelixClient::FailAllPending(const Status& status) {
  std::vector<ReplyCallback> doomed;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    if (transport_error_.ok()) {
      transport_error_ = status;
    }
    doomed.reserve(pending_.size());
    for (auto& [id, done] : pending_) {
      doomed.push_back(std::move(done));
    }
    pending_.clear();
  }
  for (ReplyCallback& done : doomed) {
    done(status);
  }
}

Result<std::string> HelixClient::Call(Opcode opcode, std::string payload) {
  auto promised = std::make_shared<std::promise<Result<std::string>>>();
  std::future<Result<std::string>> reply = promised->get_future();
  CallAsync(opcode, std::move(payload),
            [promised](Result<std::string> result) {
              promised->set_value(std::move(result));
            });
  return reply.get();
}

Result<uint64_t> HelixClient::OpenSession(const std::string& name) {
  HELIX_ASSIGN_OR_RETURN(
      std::string reply,
      Call(Opcode::kOpenSession, EncodeOpenSessionRequest(name)));
  return DecodeOpenSessionReply(reply);
}

Status HelixClient::CloseSession(uint64_t session_id) {
  HELIX_ASSIGN_OR_RETURN(
      std::string reply,
      Call(Opcode::kCloseSession, EncodeCloseSessionRequest(session_id)));
  return DecodeEmptyReply(reply);
}

Result<RemoteIterationResult> HelixClient::RunIteration(
    uint64_t session_id, const core::WorkflowSpec& spec,
    const std::string& description, core::ChangeCategory category) {
  HELIX_ASSIGN_OR_RETURN(
      std::string reply,
      Call(Opcode::kRunIteration,
           EncodeRunIterationRequest(session_id, spec, description,
                                     category)));
  return DecodeRunIterationReply(reply);
}

Result<service::SessionCounters> HelixClient::GetCounters(
    uint64_t session_id) {
  HELIX_ASSIGN_OR_RETURN(
      std::string reply,
      Call(Opcode::kGetCounters, EncodeGetCountersRequest(session_id)));
  return DecodeCountersReply(reply);
}

Result<dataflow::DataCollection> HelixClient::FetchOutput(
    uint64_t signature) {
  HELIX_ASSIGN_OR_RETURN(
      std::string reply,
      Call(Opcode::kFetchOutput, EncodeFetchOutputRequest(signature)));
  return DecodeFetchOutputReply(reply);
}

void HelixClient::RunIterationAsync(
    uint64_t session_id, const core::WorkflowSpec& spec,
    const std::string& description, core::ChangeCategory category,
    std::function<void(Result<RemoteIterationResult>)> done) {
  CallAsync(Opcode::kRunIteration,
            EncodeRunIterationRequest(session_id, spec, description,
                                      category),
            [done = std::move(done)](Result<std::string> reply) {
              if (!reply.ok()) {
                done(reply.status());
                return;
              }
              done(DecodeRunIterationReply(reply.value()));
            });
}

void HelixClient::GetCountersAsync(
    uint64_t session_id,
    std::function<void(Result<service::SessionCounters>)> done) {
  CallAsync(Opcode::kGetCounters, EncodeGetCountersRequest(session_id),
            [done = std::move(done)](Result<std::string> reply) {
              if (!reply.ok()) {
                done(reply.status());
                return;
              }
              done(DecodeCountersReply(reply.value()));
            });
}

void HelixClient::FetchOutputAsync(
    uint64_t signature,
    std::function<void(Result<dataflow::DataCollection>)> done) {
  CallAsync(Opcode::kFetchOutput, EncodeFetchOutputRequest(signature),
            [done = std::move(done)](Result<std::string> reply) {
              if (!reply.ok()) {
                done(reply.status());
                return;
              }
              done(DecodeFetchOutputReply(reply.value()));
            });
}

Result<std::string> HelixClient::GetMetricsJson() {
  HELIX_ASSIGN_OR_RETURN(std::string reply,
                         Call(Opcode::kGetMetrics, std::string()));
  return DecodeTextReply(reply);
}

Result<std::string> HelixClient::GetTraceJson() {
  HELIX_ASSIGN_OR_RETURN(std::string reply,
                         Call(Opcode::kGetTrace, std::string()));
  return DecodeTextReply(reply);
}

Status HelixClient::Shutdown() {
  HELIX_ASSIGN_OR_RETURN(std::string reply,
                         Call(Opcode::kShutdown, std::string()));
  return DecodeEmptyReply(reply);
}

void HelixClient::DropConnection(
    const std::shared_ptr<TcpConnection>& expected) {
  std::shared_ptr<TcpConnection> dropped;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    if (conn_ != expected) {
      return;  // someone already swapped/closed it
    }
    dropped = std::move(conn_);
  }
  if (dropped != nullptr) {
    // Unblocks a thread parked inside this connection's recv/send; the
    // shared handle keeps the object alive until that thread lets go.
    dropped->ShutdownBoth();
  }
}

void HelixClient::Close() {
  std::shared_ptr<TcpConnection> conn;
  {
    std::lock_guard<std::mutex> conn_lock(conn_mu_);
    conn = conn_;
  }
  DropConnection(conn);
}

}  // namespace net
}  // namespace helix
