#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "net/wire.h"

namespace helix {
namespace net {
namespace {

// epoll_event.data tags for the two non-connection descriptors; real
// connections carry their Conn* (never 0x0/0x1).
void* const kEventFdTag = reinterpret_cast<void*>(0);
void* const kListenerTag = reinterpret_cast<void*>(1);

// One gathered write covers at most this many spans; a reply with more
// simply takes several sendmsg calls.
constexpr size_t kMaxIovPerFlush = 64;

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------- Conn ---

void EventLoop::Conn::SendFrame(const Frame& frame) {
  Outbound entry;
  entry.head = EncodeFrame(frame);
  entry.total = entry.head.size();
  Enqueue(std::move(entry), /*completes_request=*/true);
}

void EventLoop::Conn::SendFrameSpans(uint8_t opcode, uint64_t request_id,
                                     std::unique_ptr<SpanWriter> payload,
                                     std::shared_ptr<const void> pin) {
  Outbound entry;
  BuildFrameParts(opcode, request_id, payload.get(), &entry.head,
                  &entry.trailer);
  entry.total =
      entry.head.size() + payload->TotalBytes() + entry.trailer.size();
  entry.spans = std::move(payload);
  entry.pin = std::move(pin);
  Enqueue(std::move(entry), /*completes_request=*/true);
}

void EventLoop::Conn::Enqueue(Outbound entry, bool completes_request) {
  {
    std::lock_guard<std::mutex> lock(out_mu);
    if (closed) {
      // Torn down: the reply is dropped (entry's pins release here) and
      // teardown already returned this connection's in-flight slots.
      return;
    }
    if (completes_request && inflight > 0) {
      --inflight;
      loop_->global_inflight_.fetch_sub(1, std::memory_order_relaxed);
    }
    queue_bytes += static_cast<int64_t>(entry.total);
    outbound.push_back(std::move(entry));
    if (queue_bytes > loop_->options_.max_outbound_queue_bytes) {
      // Slow reader: the peer is not draining replies. The teardown must
      // run on the owning loop thread; flag it and kick.
      kill_slow = true;
    }
  }
  loop_->Kick(shard_, shared_from_this());
}

bool EventLoop::Conn::WaitOutboundDrained(int timeout_ms) {
  std::unique_lock<std::mutex> lock(out_mu);
  drained_cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this]() { return closed || outbound.empty(); });
  return outbound.empty();
}

// ----------------------------------------------------------- EventLoop ---

Result<std::unique_ptr<EventLoop>> EventLoop::Start(TcpListener* listener,
                                                    EventLoopOptions options,
                                                    Handlers handlers) {
  if (!handlers.on_frame) {
    return Status::InvalidArgument("EventLoop requires an on_frame handler");
  }
  options.io_threads = std::max(1, options.io_threads);
  std::unique_ptr<EventLoop> loop(
      new EventLoop(options, std::move(handlers)));
  loop->listener_ = listener;
  HELIX_RETURN_IF_ERROR(SetNonBlocking(listener->fd()));
  for (int i = 0; i < options.io_threads; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (shard->epoll_fd < 0) {
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    shard->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (shard->event_fd < 0) {
      ::close(shard->epoll_fd);
      shard->epoll_fd = -1;
      return Status::IOError(std::string("eventfd: ") +
                             std::strerror(errno));
    }
    epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.ptr = kEventFdTag;
    if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, shard->event_fd, &ev) !=
        0) {
      return Status::IOError(std::string("epoll_ctl(eventfd): ") +
                             std::strerror(errno));
    }
    if (i == 0) {
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.ptr = kListenerTag;
      if (::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, listener->fd(), &ev) !=
          0) {
        return Status::IOError(std::string("epoll_ctl(listener): ") +
                               std::strerror(errno));
      }
    }
    loop->shards_.push_back(std::move(shard));
  }
  for (int i = 0; i < options.io_threads; ++i) {
    loop->shards_[i]->thread =
        std::thread([raw = loop.get(), i]() { raw->LoopThread(i); });
  }
  return loop;
}

EventLoop::~EventLoop() {
  Stop();
  for (auto& shard : shards_) {
    if (shard->epoll_fd >= 0) {
      ::close(shard->epoll_fd);
    }
    if (shard->event_fd >= 0) {
      ::close(shard->event_fd);
    }
  }
}

int64_t EventLoop::num_connections() const {
  return num_connections_.load(std::memory_order_acquire);
}

void EventLoop::Kick(int shard_index, const std::shared_ptr<Conn>& conn) {
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  {
    std::lock_guard<std::mutex> lock(shard->kick_mu);
    shard->kicks.push_back(conn);
  }
  uint64_t one = 1;
  (void)!::write(shard->event_fd, &one, sizeof(one));
}

void EventLoop::ArmWrite(Shard* shard, Conn* conn, bool on) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.ptr = conn;
  (void)::epoll_ctl(shard->epoll_fd, EPOLL_CTL_MOD, conn->fd_, &ev);
}

void EventLoop::LoopThread(int shard_index) {
  Shard* shard = shards_[static_cast<size_t>(shard_index)].get();
  std::vector<epoll_event> events(128);
  auto sweep_dead = [shard]() {
    for (const auto& doomed : shard->dead) {
      auto it = shard->conns.find(doomed->fd_);
      // Erase only when the entry is still the torn-down connection — a
      // same-batch accept may have reused the descriptor number.
      if (it != shard->conns.end() && it->second.get() == doomed.get()) {
        shard->conns.erase(it);
      }
    }
    shard->dead.clear();
  };
  while (true) {
    int n = ::epoll_wait(shard->epoll_fd, events.data(),
                         static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      HELIX_LOG(Warning) << "epoll_wait failed on shard " << shard_index
                         << ": " << std::strerror(errno);
      return;
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[static_cast<size_t>(i)].data.ptr;
      uint32_t flags = events[static_cast<size_t>(i)].events;
      if (tag == kEventFdTag) {
        uint64_t drained = 0;
        while (::read(shard->event_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag == kListenerTag) {
        HandleAccept(shard);
        continue;
      }
      Conn* raw = static_cast<Conn*>(tag);
      if (raw->loop_closed) {
        continue;  // torn down earlier in this batch
      }
      auto it = shard->conns.find(raw->fd_);
      if (it == shard->conns.end() || it->second.get() != raw) {
        continue;
      }
      std::shared_ptr<Conn> conn = it->second;
      if ((flags & (EPOLLHUP | EPOLLERR)) != 0) {
        Teardown(shard, conn, HangupReason::kPeerReset);
        continue;
      }
      if ((flags & EPOLLIN) != 0) {
        HandleReadable(shard, conn);
      }
      if ((flags & EPOLLOUT) != 0 && !conn->loop_closed) {
        FlushOutbound(shard, conn);
      }
    }
    sweep_dead();
    // Adopt connections handed over by the accepting shard, then service
    // cross-thread kicks (fresh output to flush, slow-reader kills).
    std::vector<std::shared_ptr<Conn>> kicks;
    std::vector<std::shared_ptr<Conn>> incoming;
    {
      std::lock_guard<std::mutex> lock(shard->kick_mu);
      kicks.swap(shard->kicks);
      incoming.swap(shard->incoming);
    }
    for (const auto& conn : incoming) {
      shard->conns[conn->fd_] = conn;
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      (void)::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, conn->fd_, &ev);
    }
    for (const auto& conn : kicks) {
      if (conn->loop_closed) {
        continue;
      }
      bool kill = false;
      {
        std::lock_guard<std::mutex> lock(conn->out_mu);
        kill = conn->kill_slow;
      }
      if (kill) {
        Teardown(shard, conn, HangupReason::kSlowReader);
      } else {
        FlushOutbound(shard, conn);
      }
    }
    sweep_dead();
    if (stopping_.load(std::memory_order_acquire)) {
      return;
    }
  }
}

void EventLoop::HandleAccept(Shard* shard) {
  while (true) {
    int fd = ::accept4(listener_->fd(), nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      // Environmental (EMFILE under fd pressure). Level-triggered epoll
      // will re-report the listener; back off briefly instead of spinning.
      HELIX_LOG(Warning) << "accept failed: " << std::strerror(errno);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return;
    }
    SetNoDelay(fd);
    int target = static_cast<int>(next_shard_.fetch_add(1) % shards_.size());
    std::shared_ptr<Conn> conn(
        new Conn(this, next_conn_id_.fetch_add(1), fd, target));
    num_connections_.fetch_add(1, std::memory_order_acq_rel);
    if (handlers_.on_accept) {
      // Before registration: user state is in place before any frame (or
      // hangup) can be delivered.
      handlers_.on_accept(conn);
    }
    if (shards_[static_cast<size_t>(target)].get() == shard) {
      shard->conns[fd] = conn;
      epoll_event ev;
      std::memset(&ev, 0, sizeof(ev));
      ev.events = EPOLLIN;
      ev.data.ptr = conn.get();
      (void)::epoll_ctl(shard->epoll_fd, EPOLL_CTL_ADD, fd, &ev);
    } else {
      Shard* other = shards_[static_cast<size_t>(target)].get();
      {
        std::lock_guard<std::mutex> lock(other->kick_mu);
        other->incoming.push_back(conn);
      }
      uint64_t one = 1;
      (void)!::write(other->event_fd, &one, sizeof(one));
    }
  }
}

void EventLoop::HandleReadable(Shard* shard,
                               const std::shared_ptr<Conn>& conn) {
  char buf[64 * 1024];
  // A few rounds per readiness event: level-triggered epoll re-reports a
  // socket we leave undrained, so capping the rounds keeps one firehose
  // client from starving its shard siblings.
  for (int round = 0; round < 4; ++round) {
    ssize_t n = ::recv(conn->fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->rdbuf.append(buf, static_cast<size_t>(n));
      if (!DrainFrames(shard, conn)) {
        return;  // torn down
      }
      continue;
    }
    if (n == 0) {
      // EOF mid-frame is a torn stream; at a frame boundary it is the
      // orderly end of the connection.
      bool mid_frame = conn->rdbuf.size() > conn->rd_off;
      Teardown(shard, conn,
               mid_frame ? HangupReason::kPeerReset
                         : HangupReason::kPeerClosed);
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    Teardown(shard, conn, HangupReason::kPeerReset);
    return;
  }
}

bool EventLoop::DrainFrames(Shard* shard, const std::shared_ptr<Conn>& conn) {
  while (true) {
    std::string_view pending =
        std::string_view(conn->rdbuf).substr(conn->rd_off);
    Frame frame;
    uint64_t request_id = 0;
    int64_t decode_start = SteadyNowMicros();
    Result<size_t> consumed = DecodeFrameFromBuffer(
        pending, options_.max_payload_bytes, &frame, &request_id);
    if (!consumed.ok()) {
      // Best-effort error reply addressed to the parsed request id, then
      // drop the stream — after a framing error there is no trustworthy
      // next-frame boundary.
      Frame error;
      error.opcode = static_cast<uint8_t>(Opcode::kReply);
      error.request_id = request_id;
      error.payload = EncodeErrorReply(consumed.status());
      Conn::Outbound entry;
      entry.head = EncodeFrame(error);
      entry.total = entry.head.size();
      conn->Enqueue(std::move(entry), /*completes_request=*/false);
      if (FlushOutbound(shard, conn)) {
        Teardown(shard, conn, HangupReason::kProtocolError);
      }
      return false;
    }
    if (consumed.value() == 0) {
      return true;  // need more bytes
    }
    int64_t decode_micros = SteadyNowMicros() - decode_start;
    conn->rd_off += consumed.value();
    if (conn->rd_off == conn->rdbuf.size()) {
      conn->rdbuf.clear();
      conn->rd_off = 0;
    } else if (conn->rd_off > (1u << 20)) {
      conn->rdbuf.erase(0, conn->rd_off);
      conn->rd_off = 0;
    }
    // Backpressure: shed the request with ResourceExhausted when either
    // in-flight bound is hit. The connection stays up — shedding is an
    // answer, not a punishment.
    bool shed;
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      shed = conn->inflight >= options_.max_inflight_per_connection;
    }
    if (!shed && global_inflight_.load(std::memory_order_relaxed) >=
                     options_.max_inflight_total) {
      shed = true;
    }
    if (shed) {
      Conn::Outbound entry;
      Frame error;
      error.opcode = static_cast<uint8_t>(Opcode::kReply);
      error.request_id = frame.request_id;
      error.payload = EncodeErrorReply(Status::ResourceExhausted(
          "server overloaded: in-flight request limit reached"));
      entry.head = EncodeFrame(error);
      entry.total = entry.head.size();
      conn->Enqueue(std::move(entry), /*completes_request=*/false);
      if (handlers_.on_shed) {
        handlers_.on_shed(conn);
      }
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conn->out_mu);
      ++conn->inflight;
    }
    global_inflight_.fetch_add(1, std::memory_order_relaxed);
    handlers_.on_frame(conn, std::move(frame), decode_micros);
  }
}

namespace {

// Appends the unsent remainder of one outbound entry as iovecs, up to
// `cap` entries total in `*iov`.
void AppendEntryIovecs(const std::string& head, SpanWriter* spans,
                       const std::string& trailer, size_t offset,
                       std::vector<struct iovec>* iov, size_t cap) {
  size_t skip = offset;
  auto add = [&](const char* data, size_t len) {
    if (iov->size() >= cap || len == 0) {
      return;
    }
    if (skip >= len) {
      skip -= len;
      return;
    }
    iov->push_back(
        {const_cast<char*>(data) + skip, len - skip});
    skip = 0;
  };
  add(head.data(), head.size());
  if (spans != nullptr) {
    for (const ByteSpan& s : spans->spans()) {
      if (iov->size() >= cap) {
        return;
      }
      add(s.data, s.len);
    }
  }
  add(trailer.data(), trailer.size());
}

}  // namespace

bool EventLoop::FlushOutbound(Shard* shard,
                              const std::shared_ptr<Conn>& conn) {
  if (conn->loop_closed) {
    return false;
  }
  std::unique_lock<std::mutex> lock(conn->out_mu);
  if (conn->kill_slow) {
    lock.unlock();
    Teardown(shard, conn, HangupReason::kSlowReader);
    return false;
  }
  while (!conn->outbound.empty()) {
    std::vector<struct iovec> iov;
    iov.reserve(kMaxIovPerFlush);
    for (const Conn::Outbound& entry : conn->outbound) {
      AppendEntryIovecs(entry.head, entry.spans.get(), entry.trailer,
                        entry.offset, &iov, kMaxIovPerFlush);
      if (iov.size() >= kMaxIovPerFlush) {
        break;
      }
    }
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov.data();
    msg.msg_iovlen = iov.size();
    ssize_t n = ::sendmsg(conn->fd_, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->write_armed) {
          conn->write_armed = true;
          ArmWrite(shard, conn.get(), true);
        }
        return true;
      }
      lock.unlock();
      Teardown(shard, conn, HangupReason::kPeerReset);
      return false;
    }
    size_t sent = static_cast<size_t>(n);
    while (sent > 0 && !conn->outbound.empty()) {
      Conn::Outbound& front = conn->outbound.front();
      size_t step = std::min(front.total - front.offset, sent);
      front.offset += step;
      sent -= step;
      if (front.offset == front.total) {
        conn->queue_bytes -= static_cast<int64_t>(front.total);
        conn->outbound.pop_front();  // releases the entry's pins
      }
    }
  }
  if (conn->write_armed) {
    conn->write_armed = false;
    ArmWrite(shard, conn.get(), false);
  }
  conn->drained_cv.notify_all();
  return true;
}

void EventLoop::Teardown(Shard* shard, const std::shared_ptr<Conn>& conn,
                         HangupReason reason) {
  if (conn->loop_closed) {
    return;
  }
  conn->loop_closed = true;
  int released = 0;
  std::deque<Conn::Outbound> doomed;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    conn->closed = true;
    released = conn->inflight;
    conn->inflight = 0;
    doomed.swap(conn->outbound);
    conn->queue_bytes = 0;
    conn->drained_cv.notify_all();
  }
  if (released > 0) {
    global_inflight_.fetch_sub(released, std::memory_order_relaxed);
  }
  (void)::epoll_ctl(shard->epoll_fd, EPOLL_CTL_DEL, conn->fd_, nullptr);
  ::close(conn->fd_);
  shard->dead.push_back(conn);
  num_connections_.fetch_sub(1, std::memory_order_acq_rel);
  doomed.clear();  // releases queued replies' span pins
  if (handlers_.on_hangup) {
    handlers_.on_hangup(conn, reason);
  }
}

void EventLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    uint64_t one = 1;
    (void)!::write(shard->event_fd, &one, sizeof(one));
  }
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) {
      shard->thread.join();
    }
  }
  // Loop threads are gone: tear down every remaining connection on this
  // thread (handlers may still need the server's service — the caller
  // sequences Stop() before destroying it).
  for (auto& shard : shards_) {
    std::vector<std::shared_ptr<Conn>> incoming;
    {
      std::lock_guard<std::mutex> lock(shard->kick_mu);
      incoming.swap(shard->incoming);
      shard->kicks.clear();
    }
    for (const auto& conn : incoming) {
      shard->conns[conn->fd_] = conn;
    }
    std::vector<std::shared_ptr<Conn>> doomed;
    doomed.reserve(shard->conns.size());
    for (const auto& [fd, conn] : shard->conns) {
      doomed.push_back(conn);
    }
    for (const auto& conn : doomed) {
      Teardown(shard.get(), conn, HangupReason::kServerStop);
    }
    shard->conns.clear();
    shard->dead.clear();
  }
}

}  // namespace net
}  // namespace helix
