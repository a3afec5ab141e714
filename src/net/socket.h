// Thin POSIX TCP wrappers for the network layer.
//
// Deliberately minimal: Status-based errors over blocking sockets, IPv4 —
// the framing protocol (net/frame.h) and the blocking client need exactly
// "read N bytes / write N bytes / unblock a blocked peer". The epoll
// server (net/event_loop.h) drives the same descriptors nonblocking; the
// fd accessors and SetNonBlocking below are its escape hatch from the
// blocking helpers.
#ifndef HELIX_NET_SOCKET_H_
#define HELIX_NET_SOCKET_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace helix {
namespace net {

/// One connected TCP stream. Thread safety: WriteAll and ReadAll may run
/// concurrently with each other (full duplex) and with ShutdownBoth, but
/// each direction must be driven by at most one thread at a time — callers
/// needing concurrent writers serialize externally (the client holds a
/// write mutex). Ownership: closes the fd on destruction.
class TcpConnection {
 public:
  explicit TcpConnection(int fd) : fd_(fd) {}
  ~TcpConnection();

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Writes exactly `len` bytes; IOError if the peer went away.
  Status WriteAll(const void* data, size_t len);

  /// Reads exactly `len` bytes. Returns true on success, false on a clean
  /// end-of-stream *before the first byte* (orderly peer close between
  /// messages); IOError on mid-buffer EOF or a socket error.
  Result<bool> ReadAllOrEof(void* data, size_t len);

  /// Half-closes both directions, unblocking any thread inside ReadAllOrEof
  /// or WriteAll on this connection (their calls then fail cleanly). Safe
  /// to call from any thread, repeatedly.
  void ShutdownBoth();

  int fd() const { return fd_; }

 private:
  int fd_;
};

/// A listening TCP socket.
class TcpListener {
 public:
  /// Binds and listens on `host:port`. The host is resolved through
  /// getaddrinfo (AI_PASSIVE) exactly like Connect's — numeric IPv4
  /// ("127.0.0.1") and resolvable names ("localhost") both work, and an
  /// empty host binds the wildcard address. Port 0 picks an ephemeral
  /// port — read the resolved one from port().
  static Result<std::unique_ptr<TcpListener>> Listen(const std::string& host,
                                                     int port);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Blocks for the next connection. After Close() (from any thread),
  /// returns FailedPrecondition instead of blocking forever.
  Result<std::unique_ptr<TcpConnection>> Accept();

  /// Shuts the listening socket down, unblocking a blocked Accept. The fd
  /// itself stays open until destruction: closing it here would let the
  /// kernel recycle the descriptor number while another thread is still
  /// about to accept(2) on it — the classic close/reuse TOCTOU.
  void Close();

  /// The locally bound port (the ephemeral choice when opened with 0).
  int port() const { return port_; }

  /// The listening descriptor, for readiness-driven owners (the event
  /// loop epolls it and accepts nonblocking instead of calling Accept).
  int fd() const { return fd_; }

 private:
  TcpListener(int fd, int port) : fd_(fd), port_(port) {}

  const int fd_;
  int port_;
  /// Set (once) by Close(); checked by Accept() around the accept call so
  /// a post-shutdown wakeup reads as an orderly close.
  std::atomic<bool> closed_{false};
};

/// Connects to `host:port` (numeric IPv4 or a resolvable hostname).
Result<std::unique_ptr<TcpConnection>> Connect(const std::string& host,
                                               int port);

/// Sets O_NONBLOCK on `fd` (the event loop's accepted sockets and
/// listener).
Status SetNonBlocking(int fd);

/// Enables TCP_NODELAY on `fd` (Accept and Connect already do; exposed for
/// sockets accepted outside them).
void SetNoDelay(int fd);

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_SOCKET_H_
