// EventLoop: a small fixed set of epoll-driven I/O threads multiplexing
// every client connection of a HelixServer.
//
// A blocking reader per connection would spend one blocked OS thread per
// client — fine for dozens, fatal for the paper's "millions of users"
// framing. This loop serves the framing protocol with `io_threads`
// threads total, each owning one epoll instance (a shard) and a disjoint
// subset of the connections:
//
//   * the listener is watched by shard 0; accepted sockets are made
//     nonblocking and handed to shards round-robin;
//   * readable sockets are drained into a per-connection buffer and frames
//     are decoded incrementally (DecodeFrameFromBuffer) — a frame spread
//     across many TCP segments costs readiness wakeups, never a blocked
//     thread;
//   * writes go through a per-connection outbound queue flushed by the
//     owning loop thread (gathered sendmsg); EPOLLOUT is armed only while
//     the queue is nonempty. A queued reply may carry borrowed spans (the
//     zero-copy FetchOutput path): the entry pins the SpanWriter and the
//     DataCollection behind it until the bytes are on the wire.
//
// Backpressure is first-class policy, not an accident of blocking I/O:
//
//   * bounded in-flight requests, per connection and loop-wide — a frame
//     past either limit is answered immediately with a ResourceExhausted
//     error reply (load shedding) instead of ballooning the pool queue;
//     the connection survives and the client may retry;
//   * a bounded outbound-queue byte budget per connection — a peer that
//     stops reading has its connection torn down when queued replies
//     exceed the budget (the slow-reader defense).
//
// Threading: handlers (on_accept, on_frame, on_shed) run on the loop
// thread owning the connection; on_hangup runs there too, or on the
// Stop() caller during teardown — exactly once per connection either way.
// Conn::SendFrame / SendFrameSpans are safe from any thread (the pool
// workers answering requests); delivery is ordered per connection by the
// queue. Stop() joins the loop threads and tears down every connection
// (firing on_hangup) before returning, so handlers never outlive the
// structures they capture.
#ifndef HELIX_NET_EVENT_LOOP_H_
#define HELIX_NET_EVENT_LOOP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/spans.h"
#include "common/status.h"
#include "net/frame.h"
#include "net/socket.h"

namespace helix {
namespace net {

struct EventLoopOptions {
  /// Epoll shards (and threads). 2 is enough to saturate loopback; the
  /// point is that this does NOT grow with the connection count.
  int io_threads = 2;
  uint32_t max_payload_bytes = kDefaultMaxPayloadBytes;
  /// In-flight request limits (dispatched, reply not yet queued). Past
  /// either bound a request is shed with ResourceExhausted.
  int max_inflight_per_connection = 64;
  int64_t max_inflight_total = 1024;
  /// Slow-reader defense: tear the connection down when its queued
  /// outbound bytes exceed this.
  int64_t max_outbound_queue_bytes = 64ll << 20;
};

/// Why a connection ended; on_hangup receives it.
enum class HangupReason {
  kPeerClosed,     // clean EOF at a frame boundary
  kPeerReset,      // read/write error: EPIPE, ECONNRESET, torn stream
  kSlowReader,     // outbound queue exceeded its byte budget
  kProtocolError,  // malformed frame (best-effort error reply was queued)
  kServerStop,     // EventLoop::Stop tore the connection down
};

class EventLoop {
 public:
  /// One connection owned by the loop. Exposed to the server as a handle:
  /// user state, reply submission, and drain waiting. Everything else is
  /// loop-internal.
  class Conn : public std::enable_shared_from_this<Conn> {
   public:
    /// Opaque per-connection server state, set in on_accept before any
    /// frame is delivered and never reassigned after.
    std::shared_ptr<void> user;

    uint64_t id() const { return id_; }

    /// Queues one flat reply frame (EncodeFrame of `frame`) for delivery
    /// and marks one in-flight request complete. Thread-safe; silently a
    /// no-op once the connection is torn down.
    void SendFrame(const Frame& frame);

    /// Queues one span-list reply frame (BuildFrameParts around the
    /// spans; wire bytes identical to SendFrame of the flattened payload).
    /// The entry owns `payload` and holds `pin` until flushed — the
    /// borrowed spans' backing memory must be owned by the two. Marks one
    /// in-flight request complete.
    void SendFrameSpans(uint8_t opcode, uint64_t request_id,
                        std::unique_ptr<SpanWriter> payload,
                        std::shared_ptr<const void> pin);

    /// Blocks until every queued outbound byte reached the kernel (or the
    /// connection died, or the timeout passed); true when drained. The
    /// shutdown handler uses this so the Shutdown ack cannot be destroyed
    /// with the loop before it flushes.
    bool WaitOutboundDrained(int timeout_ms);

   private:
    friend class EventLoop;

    /// One queued outbound message: either a flat frame in `head`, or a
    /// deferred gathered write (`head` = frame header, the SpanWriter's
    /// span list, `trailer` = checksum) pinning its backing storage.
    struct Outbound {
      std::string head;
      std::unique_ptr<SpanWriter> spans;
      std::string trailer;
      std::shared_ptr<const void> pin;
      size_t total = 0;   // head + span payload + trailer bytes
      size_t offset = 0;  // bytes already on the wire
    };

    Conn(EventLoop* loop, uint64_t id, int fd, int shard)
        : loop_(loop), id_(id), fd_(fd), shard_(shard) {}

    void Enqueue(Outbound entry, bool completes_request);

    EventLoop* const loop_;
    const uint64_t id_;
    int fd_;
    const int shard_;

    // --- loop-thread-only state ---
    std::string rdbuf;
    size_t rd_off = 0;
    /// Set by teardown; a stale epoll event for this conn is skipped.
    bool loop_closed = false;

    // --- shared state, guarded by out_mu ---
    std::mutex out_mu;
    std::deque<Outbound> outbound;
    int64_t queue_bytes = 0;
    int inflight = 0;
    bool closed = false;        // torn down: drop further sends
    bool write_armed = false;   // EPOLLOUT currently requested
    bool kill_slow = false;     // budget exceeded; loop thread tears down
    std::condition_variable drained_cv;
  };

  using AcceptHandler = std::function<void(const std::shared_ptr<Conn>&)>;
  /// `decode_micros` is the time DecodeFrameFromBuffer spent on this
  /// frame (parse + checksum; the wire wait is readiness, not time on a
  /// thread).
  using FrameHandler = std::function<void(const std::shared_ptr<Conn>&,
                                          Frame&&, int64_t decode_micros)>;
  using ShedHandler = std::function<void(const std::shared_ptr<Conn>&)>;
  using HangupHandler =
      std::function<void(const std::shared_ptr<Conn>&, HangupReason)>;

  struct Handlers {
    AcceptHandler on_accept;
    FrameHandler on_frame;
    ShedHandler on_shed;
    HangupHandler on_hangup;
  };

  /// Starts the loop over `listener` (borrowed; must outlive the loop;
  /// the caller must not Accept() on it concurrently). on_frame is
  /// required; the rest may be empty.
  static Result<std::unique_ptr<EventLoop>> Start(TcpListener* listener,
                                                  EventLoopOptions options,
                                                  Handlers handlers);

  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Joins the loop threads and tears down every connection, firing
  /// on_hangup(kServerStop) for each. Idempotent.
  void Stop();

  /// Live connection count (for tests).
  int64_t num_connections() const;

 private:
  struct Shard {
    int epoll_fd = -1;
    int event_fd = -1;
    std::thread thread;
    /// Owned connections; loop thread only (and Stop after join).
    std::unordered_map<int, std::shared_ptr<Conn>> conns;
    /// Connections torn down during the current event batch, erased from
    /// `conns` afterwards (stale epoll events are skipped meanwhile).
    std::vector<std::shared_ptr<Conn>> dead;
    std::mutex kick_mu;
    /// Connections with freshly queued output (flush) or a pending kill,
    /// plus newly accepted connections to adopt.
    std::vector<std::shared_ptr<Conn>> kicks;
    std::vector<std::shared_ptr<Conn>> incoming;
  };

  EventLoop(EventLoopOptions options, Handlers handlers)
      : options_(options), handlers_(std::move(handlers)) {}

  void LoopThread(int shard_index);
  void HandleAccept(Shard* shard);
  void HandleReadable(Shard* shard, const std::shared_ptr<Conn>& conn);
  /// Decodes and dispatches every complete frame in conn->rdbuf.
  /// False if the connection was torn down.
  bool DrainFrames(Shard* shard, const std::shared_ptr<Conn>& conn);
  /// Flushes the outbound queue with gathered nonblocking writes; arms /
  /// disarms EPOLLOUT. False if the connection was torn down.
  bool FlushOutbound(Shard* shard, const std::shared_ptr<Conn>& conn);
  void Teardown(Shard* shard, const std::shared_ptr<Conn>& conn,
                HangupReason reason);
  void Kick(int shard_index, const std::shared_ptr<Conn>& conn);
  void ArmWrite(Shard* shard, Conn* conn, bool on);

  const EventLoopOptions options_;
  const Handlers handlers_;
  TcpListener* listener_ = nullptr;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_conn_id_{1};
  std::atomic<size_t> next_shard_{0};
  std::atomic<int64_t> global_inflight_{0};
  std::atomic<int64_t> num_connections_{0};
  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;
  bool stopped_ = false;
};

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_EVENT_LOOP_H_
