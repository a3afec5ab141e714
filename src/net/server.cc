#include "net/server.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "dataflow/simd.h"

namespace helix {
namespace net {
namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// On-the-wire size of a frame carrying `payload_bytes` of payload.
int64_t FrameWireBytes(size_t payload_bytes) {
  return static_cast<int64_t>(kFrameHeaderBytes + payload_bytes +
                              kFrameChecksumBytes);
}

}  // namespace

// -------------------------------------------------------------- startup ---

Result<std::unique_ptr<HelixServer>> HelixServer::Start(
    const ServerOptions& options, core::WorkflowResolver resolver) {
  if (!resolver) {
    return Status::InvalidArgument("HelixServer requires a resolver");
  }
  std::unique_ptr<HelixServer> server(
      new HelixServer(options, std::move(resolver)));
  HELIX_ASSIGN_OR_RETURN(server->service_,
                         service::SessionService::Open(options.service));
  obs::MetricsRegistry* metrics = server->service_->metrics();
  server->decode_micros_ = metrics->GetHistogram("server.decode_micros");
  server->queue_micros_ = metrics->GetHistogram("server.queue_micros");
  server->execute_micros_ = metrics->GetHistogram("server.execute_micros");
  server->reply_write_micros_ =
      metrics->GetHistogram("server.reply_write_micros");
  server->reply_fingerprint_micros_ =
      metrics->GetHistogram("server.reply_fingerprint_micros");
  server->frames_in_total_ = metrics->GetCounter("server.frames_in");
  server->bytes_in_total_ = metrics->GetCounter("server.bytes_in");
  server->frames_out_total_ = metrics->GetCounter("server.frames_out");
  server->bytes_out_total_ = metrics->GetCounter("server.bytes_out");
  server->requests_total_ = metrics->GetCounter("server.requests");
  // Registered up front (not lazily on first event) so every snapshot
  // carries them and telemetry checks can assert presence even at zero.
  server->requests_shed_ = metrics->GetCounter("server.requests_shed");
  server->reply_drops_ = metrics->GetCounter("server.reply_drops");
  server->reply_timeouts_ = metrics->GetCounter("server.reply_timeouts");
  HELIX_ASSIGN_OR_RETURN(server->listener_,
                         TcpListener::Listen(options.host, options.port));
  EventLoopOptions loop_options;
  loop_options.io_threads = options.io_threads;
  loop_options.max_payload_bytes = options.max_payload_bytes;
  loop_options.max_inflight_per_connection =
      options.max_inflight_per_connection;
  loop_options.max_inflight_total = options.max_inflight_total;
  loop_options.max_outbound_queue_bytes = options.max_outbound_queue_bytes;
  EventLoop::Handlers handlers;
  HelixServer* raw = server.get();
  handlers.on_accept = [raw](const std::shared_ptr<EventLoop::Conn>& c) {
    raw->OnLoopAccept(c);
  };
  handlers.on_frame = [raw](const std::shared_ptr<EventLoop::Conn>& c,
                            Frame&& frame, int64_t decode_micros) {
    raw->OnLoopFrame(c, std::move(frame), decode_micros);
  };
  handlers.on_shed = [raw](const std::shared_ptr<EventLoop::Conn>&) {
    raw->requests_shed_->Add(1);
  };
  handlers.on_hangup = [raw](const std::shared_ptr<EventLoop::Conn>& c,
                             HangupReason reason) {
    raw->OnLoopHangup(c, reason);
  };
  HELIX_ASSIGN_OR_RETURN(
      server->event_loop_,
      EventLoop::Start(server->listener_.get(), loop_options,
                       std::move(handlers)));
  return server;
}

HelixServer::~HelixServer() { Stop(); }

int64_t HelixServer::num_connections() const {
  return event_loop_->num_connections();
}

// ------------------------------------------------------------ transport ---

void HelixServer::OnLoopAccept(const std::shared_ptr<EventLoop::Conn>& conn) {
  auto connection = std::make_shared<ClientConn>();
  connection->loop_conn = conn;
  conn->user = connection;
}

void HelixServer::OnLoopFrame(const std::shared_ptr<EventLoop::Conn>& conn,
                              Frame&& frame, int64_t decode_micros) {
  decode_micros_->Observe(decode_micros);
  frames_in_total_->Add(1);
  bytes_in_total_->Add(FrameWireBytes(frame.payload.size()));
  DispatchFrame(std::static_pointer_cast<ClientConn>(conn->user),
                std::move(frame));
}

void HelixServer::OnLoopHangup(const std::shared_ptr<EventLoop::Conn>& conn,
                               HangupReason reason) {
  std::shared_ptr<ClientConn> connection =
      std::static_pointer_cast<ClientConn>(conn->user);
  if (connection == nullptr) {
    return;
  }
  switch (reason) {
    case HangupReason::kSlowReader:
      // The peer stopped draining replies and its queued bytes blew the
      // budget.
      reply_timeouts_->Add(1);
      HELIX_LOG(Warning) << "dropping connection " << conn->id()
                         << ": slow reader exceeded the outbound-queue "
                            "budget, queued replies dropped";
      break;
    case HangupReason::kPeerReset:
      // The peer vanished (reset, torn stream): anything queued for it
      // was dropped with the connection.
      reply_drops_->Add(1);
      break;
    case HangupReason::kPeerClosed:
    case HangupReason::kProtocolError:
    case HangupReason::kServerStop:
      break;
  }
  CloseConnectionSessions(connection.get());
}

// ------------------------------------------------------------- dispatch ---

void HelixServer::DispatchFrame(const std::shared_ptr<ClientConn>& conn,
                                Frame frame) {
  // Dispatch onto the shared pool: iterations of different sessions run
  // concurrently, bounded by the pool — the remote analogue of
  // SubmitIteration.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    ++outstanding_;
  }
  uint64_t request_id = frame.request_id;
  int64_t enqueue_micros = SteadyNowMicros();
  bool scheduled = service_->pool()->Schedule(
      [this, conn, enqueue_micros, f = std::move(frame)]() mutable {
        HandleRequest(conn, std::move(f), enqueue_micros);
        std::lock_guard<std::mutex> lock(drain_mu_);
        if (--outstanding_ == 0) {
          drain_cv_.notify_all();
        }
      });
  if (!scheduled) {
    {
      std::lock_guard<std::mutex> lock(drain_mu_);
      if (--outstanding_ == 0) {
        drain_cv_.notify_all();
      }
    }
    SendReply(conn.get(), request_id,
              EncodeErrorReply(Status::FailedPrecondition(
                  "server is shutting down")));
  }
}

void HelixServer::HandleRequest(const std::shared_ptr<ClientConn>& connection,
                                Frame frame, int64_t enqueue_micros) {
  int64_t handler_start = SteadyNowMicros();
  queue_micros_->Observe(handler_start - enqueue_micros);
  requests_total_->Add(1);
  std::string reply;
  switch (static_cast<Opcode>(frame.opcode)) {
    case Opcode::kOpenSession:
      reply = HandleOpenSession(connection.get(), frame);
      break;
    case Opcode::kCloseSession:
      reply = HandleCloseSession(connection.get(), frame);
      break;
    case Opcode::kRunIteration:
      reply = HandleRunIteration(frame);
      break;
    case Opcode::kGetCounters:
      reply = HandleGetCounters(frame);
      break;
    case Opcode::kGetMetrics:
      reply = HandleGetMetrics(frame);
      break;
    case Opcode::kGetTrace:
      reply = HandleGetTrace(frame);
      break;
    case Opcode::kFetchOutput:
      // Delivers its own reply: the span path hands the stored payload to
      // the loop, which keeps it alive until written.
      HandleFetchOutput(connection.get(), frame, handler_start);
      return;
    case Opcode::kShutdown:
      reply = EncodeEmptyReply();
      break;
    default:
      reply = EncodeErrorReply(Status::InvalidArgument(
          "unknown opcode " + std::to_string(frame.opcode)));
      break;
  }
  execute_micros_->Observe(SteadyNowMicros() - handler_start);
  SendReply(connection.get(), frame.request_id, std::move(reply));
  if (static_cast<Opcode>(frame.opcode) == Opcode::kShutdown) {
    // Ack first (above), act later: Stop() from a pool task would deadlock
    // the pool drain, so shutdown is recorded and surfaced through
    // WaitForShutdownRequest for the owner to act on. SendReply only
    // *queues* the ack, so wait for the flush — the owner's Stop() tears
    // the loop down and would destroy it unsent.
    if (std::shared_ptr<EventLoop::Conn> lc = connection->loop_conn.lock()) {
      lc->WaitOutboundDrained(/*timeout_ms=*/2000);
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      shutdown_requested_ = true;
    }
    state_cv_.notify_all();
  }
}

// ------------------------------------------------------------- handlers ---

std::string HelixServer::HandleOpenSession(ClientConn* connection,
                                           const Frame& frame) {
  Result<std::string> name = DecodeOpenSessionRequest(frame.payload);
  if (!name.ok()) {
    return EncodeErrorReply(name.status());
  }
  Result<service::ServiceSession*> session =
      service_->CreateSession(name.value());
  if (!session.ok()) {
    return EncodeErrorReply(session.status());
  }
  {
    std::lock_guard<std::mutex> lock(connection->sessions_mu);
    connection->session_ids.push_back(session.value()->id());
  }
  return EncodeOpenSessionReply(session.value()->id());
}

std::string HelixServer::HandleCloseSession(ClientConn* connection,
                                            const Frame& frame) {
  Result<uint64_t> session_id = DecodeCloseSessionRequest(frame.payload);
  if (!session_id.ok()) {
    return EncodeErrorReply(session_id.status());
  }
  Status closed = service_->CloseSession(session_id.value());
  if (!closed.ok()) {
    return EncodeErrorReply(closed);
  }
  {
    std::lock_guard<std::mutex> lock(connection->sessions_mu);
    for (auto it = connection->session_ids.begin();
         it != connection->session_ids.end(); ++it) {
      if (*it == session_id.value()) {
        connection->session_ids.erase(it);
        break;
      }
    }
  }
  return EncodeEmptyReply();
}

std::string HelixServer::HandleRunIteration(const Frame& frame) {
  Result<RunIterationRequest> request =
      DecodeRunIterationRequest(frame.payload);
  if (!request.ok()) {
    return EncodeErrorReply(request.status());
  }
  // The shared_ptr keeps the session alive across a concurrent
  // CloseSession (its connection dropping mid-iteration).
  std::shared_ptr<service::ServiceSession> session =
      service_->FindSession(request->session_id);
  if (session == nullptr) {
    return EncodeErrorReply(Status::NotFound(
        "no session with id " + std::to_string(request->session_id)));
  }
  Result<core::Workflow> workflow = resolver_(request->spec);
  if (!workflow.ok()) {
    return EncodeErrorReply(
        workflow.status().WithContext("resolving workflow spec"));
  }
  // Already on a pool worker: run the iteration here, exactly like an
  // in-process SubmitIteration task would.
  Result<core::IterationResult> result = service_->RunIteration(
      session.get(), workflow.value(), request->description,
      request->category, &request->spec);
  if (!result.ok()) {
    return EncodeErrorReply(result.status());
  }
  RemoteIterationResult remote;
  remote.version_id = result->version_id;
  remote.num_computed = result->report.num_computed;
  remote.num_loaded = result->report.num_loaded;
  remote.num_shared = result->report.num_shared;
  remote.num_pruned = result->report.num_pruned;
  remote.num_materialized = result->report.num_materialized;
  remote.total_micros = result->report.total_micros;
  const int64_t fingerprint_start = SteadyNowMicros();
  for (const auto& [output_name, data] : result->report.outputs) {
    const core::NodeExecution* node = result->report.FindNode(output_name);
    remote.outputs.push_back({output_name, data.Fingerprint(),
                              node != nullptr ? node->signature : 0});
  }
  reply_fingerprint_micros_->Observe(SteadyNowMicros() - fingerprint_start);
  return EncodeRunIterationReply(remote);
}

std::string HelixServer::HandleGetCounters(const Frame& frame) {
  Result<uint64_t> session_id = DecodeGetCountersRequest(frame.payload);
  if (!session_id.ok()) {
    return EncodeErrorReply(session_id.status());
  }
  if (session_id.value() == 0) {
    return EncodeCountersReply(service_->AggregateCounters());
  }
  std::shared_ptr<service::ServiceSession> session =
      service_->FindSession(session_id.value());
  if (session == nullptr) {
    return EncodeErrorReply(Status::NotFound(
        "no session with id " + std::to_string(session_id.value())));
  }
  return EncodeCountersReply(session->counters());
}

std::string HelixServer::HandleGetMetrics(const Frame& frame) {
  Status empty = DecodeEmptyRequest(frame.payload, "GetMetrics");
  if (!empty.ok()) {
    return EncodeErrorReply(empty);
  }
  // Kernel invocation counts live in lock-free globals (dataflow/simd.h);
  // fold the deltas into the registry so the snapshot carries them.
  dataflow::simd::FoldCountersInto(service_->metrics());
  return EncodeTextReply(service_->metrics()->SnapshotJson());
}

std::string HelixServer::HandleGetTrace(const Frame& frame) {
  Status empty = DecodeEmptyRequest(frame.payload, "GetTrace");
  if (!empty.ok()) {
    return EncodeErrorReply(empty);
  }
  return EncodeTextReply(service_->trace()->ToChromeJson());
}

void HelixServer::HandleFetchOutput(ClientConn* connection,
                                    const Frame& frame,
                                    int64_t handler_start) {
  Result<uint64_t> signature = DecodeFetchOutputRequest(frame.payload);
  if (!signature.ok()) {
    execute_micros_->Observe(SteadyNowMicros() - handler_start);
    SendReply(connection, frame.request_id,
              EncodeErrorReply(signature.status()));
    return;
  }
  Result<dataflow::DataCollection> data = service_->store()->Get(
      signature.value(), options_.service.paranoid_checks);
  if (!data.ok()) {
    execute_micros_->Observe(SteadyNowMicros() - handler_start);
    SendReply(connection, frame.request_id,
              EncodeErrorReply(data.status().WithContext(
                  "fetching output with signature " +
                  std::to_string(signature.value()))));
    return;
  }
  // The span list borrows the columns' own buffers, so the collection
  // rides along as the pin until the queued entry flushes.
  auto owned =
      std::make_shared<dataflow::DataCollection>(std::move(data).value());
  auto spans = std::make_unique<SpanWriter>();
  EncodeFetchOutputReplyToSpans(*owned, spans.get());
  execute_micros_->Observe(SteadyNowMicros() - handler_start);
  SendReplySpans(connection, frame.request_id, std::move(spans),
                 std::move(owned));
}

// -------------------------------------------------------------- helpers ---

void HelixServer::CloseConnectionSessions(ClientConn* connection) {
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(connection->sessions_mu);
    ids.swap(connection->session_ids);
  }
  for (uint64_t id : ids) {
    // NotFound means an explicit CloseSession already retired it.
    Status closed = service_->CloseSession(id);
    if (!closed.ok() && !closed.IsNotFound()) {
      HELIX_LOG(Warning) << "closing session " << id
                         << " on disconnect failed: " << closed.ToString();
    }
  }
}

Status HelixServer::CheckReplySize(size_t payload_bytes) const {
  if (payload_bytes <= options_.max_payload_bytes) {
    return Status::OK();
  }
  return Status::ResourceExhausted(
      "reply of " + std::to_string(payload_bytes) +
      " bytes exceeds the " + std::to_string(options_.max_payload_bytes) +
      "-byte frame payload limit");
}

void HelixServer::SendReply(ClientConn* connection, uint64_t request_id,
                            std::string payload) {
  std::shared_ptr<EventLoop::Conn> lc = connection->loop_conn.lock();
  if (lc == nullptr) {
    return;  // torn down; its in-flight slots were already returned
  }
  // A frame the peer would reject drops its connection and fails every
  // call in flight there; answer this one call with the error instead.
  if (Status fits = CheckReplySize(payload.size()); !fits.ok()) {
    payload = EncodeErrorReply(fits);
  }
  Frame reply;
  reply.opcode = static_cast<uint8_t>(Opcode::kReply);
  reply.request_id = request_id;
  reply.payload = std::move(payload);
  int64_t enqueue_start = SteadyNowMicros();
  lc->SendFrame(reply);
  AccountReplyOut(reply.payload.size(), enqueue_start);
}

void HelixServer::SendReplySpans(ClientConn* connection, uint64_t request_id,
                                 std::unique_ptr<SpanWriter> payload,
                                 std::shared_ptr<const void> pin) {
  size_t payload_bytes = payload->TotalBytes();
  if (Status fits = CheckReplySize(payload_bytes); !fits.ok()) {
    SendReply(connection, request_id, EncodeErrorReply(fits));
    return;
  }
  std::shared_ptr<EventLoop::Conn> lc = connection->loop_conn.lock();
  if (lc == nullptr) {
    return;
  }
  int64_t enqueue_start = SteadyNowMicros();
  lc->SendFrameSpans(static_cast<uint8_t>(Opcode::kReply), request_id,
                     std::move(payload), std::move(pin));
  AccountReplyOut(payload_bytes, enqueue_start);
}

void HelixServer::AccountReplyOut(size_t payload_bytes,
                                  int64_t enqueue_start) {
  reply_write_micros_->Observe(SteadyNowMicros() - enqueue_start);
  frames_out_total_->Add(1);
  bytes_out_total_->Add(FrameWireBytes(payload_bytes));
}

// ------------------------------------------------------------- shutdown ---

void HelixServer::WaitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait(lock, [this]() { return shutdown_requested_ || stopped_; });
}

void HelixServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
    shutdown_requested_ = true;
  }
  state_cv_.notify_all();

  // 1. One call: joins the loop threads and tears down every
  // connection — no new frames after it returns. The hangup handlers it
  // fires retire the connections' sessions, which needs the service still
  // alive (it is; teardown is below). The listener closes after, so a
  // racing accept in the loop never touches a closed fd. Either may be
  // absent when Start() failed partway and the half-built server is being
  // destroyed.
  if (event_loop_ != nullptr) {
    event_loop_->Stop();
  }
  if (listener_ != nullptr) {
    listener_->Close();
  }
  // 2. Let in-flight handlers finish (their replies go to already-dead
  //    connections and are dropped; their store effects are durable).
  {
    std::unique_lock<std::mutex> lock(drain_mu_);
    drain_cv_.wait(lock, [this]() { return outstanding_ == 0; });
  }
  // 3. Tear down the service: drains the pool and the background writer,
  //    then persists the shared stats registry. The pointer is detached
  //    under state_mu_ first so a concurrent service() reads nullptr
  //    rather than a service mid-destruction; the heavy destructor then
  //    runs unlocked.
  std::unique_ptr<service::SessionService> doomed;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    doomed = std::move(service_);
  }
  doomed.reset();
}

}  // namespace net
}  // namespace helix
