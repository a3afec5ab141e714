#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/strings.h"

namespace helix {
namespace net {
namespace {

Status Errno(const char* what) {
  return Status::IOError(StrFormat("%s: %s", what, std::strerror(errno)));
}

}  // namespace

// Iteration latency is the resource users feel (the whole point of the
// paper); a 40ms Nagle stall per small request frame would dwarf it.
void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Errno("fcntl(F_GETFL)");
  }
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL)");
  }
  return Status::OK();
}

TcpConnection::~TcpConnection() {
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Status TcpConnection::WriteAll(const void* data, size_t len) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    // MSG_NOSIGNAL: a dying peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    ssize_t n = ::send(fd_, p, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("send");
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<bool> TcpConnection::ReadAllOrEof(void* data, size_t len) {
  char* p = static_cast<char*>(data);
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd_, p + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Errno("recv");
    }
    if (n == 0) {
      if (got == 0) {
        return false;  // clean close between messages
      }
      return Status::IOError("connection closed mid-message");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

void TcpConnection::ShutdownBoth() { (void)::shutdown(fd_, SHUT_RDWR); }

TcpListener::~TcpListener() {
  Close();
  // Safe to actually release the descriptor now: the owner destroys the
  // listener only after joining every thread that could call Accept.
  if (fd_ >= 0) {
    ::close(fd_);
  }
}

Result<std::unique_ptr<TcpListener>> TcpListener::Listen(
    const std::string& host, int port) {
  // Resolve through getaddrinfo exactly as Connect does — the listener and
  // the client must agree on what a host string means ("localhost" used to
  // connect fine but fail to bind). AI_PASSIVE turns an empty host into
  // the wildcard address.
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                         std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    return Status::InvalidArgument(StrFormat(
        "cannot resolve listen host %s: %s", host.c_str(),
        gai_strerror(rc)));
  }
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    int one = 1;
    (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("bind");
      ::close(fd);
      continue;
    }
    if (::listen(fd, /*backlog=*/256) != 0) {
      last = Errno("listen");
      ::close(fd);
      continue;
    }
    sockaddr_in addr;
    socklen_t addr_len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr),
                      &addr_len) != 0) {
      last = Errno("getsockname");
      ::close(fd);
      continue;
    }
    ::freeaddrinfo(res);
    int bound_port = static_cast<int>(ntohs(addr.sin_port));
    return std::unique_ptr<TcpListener>(new TcpListener(fd, bound_port));
  }
  ::freeaddrinfo(res);
  return last;
}

Result<std::unique_ptr<TcpConnection>> TcpListener::Accept() {
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::FailedPrecondition("listener closed");
    }
    int fd = ::accept(fd_, nullptr, nullptr);
    if (closed_.load(std::memory_order_acquire)) {
      // Close() ran while we were parked; whatever accept returned (a
      // late connection, ECONNABORTED, EINVAL) this is an orderly stop.
      if (fd >= 0) {
        ::close(fd);
      }
      return Status::FailedPrecondition("listener closed");
    }
    if (fd >= 0) {
      SetNoDelay(fd);
      return std::make_unique<TcpConnection>(fd);
    }
    if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
      // The connection died between the kernel queue and us; POSIX says
      // retry, not fail.
      continue;
    }
    return Errno("accept");
  }
}

void TcpListener::Close() {
  if (!closed_.exchange(true, std::memory_order_acq_rel)) {
    // Wakes a thread parked in accept(); the fd is NOT closed here (see
    // the header comment on descriptor recycling).
    (void)::shutdown(fd_, SHUT_RDWR);
  }
}

Result<std::unique_ptr<TcpConnection>> Connect(const std::string& host,
                                               int port) {
  addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0) {
    return Status::IOError(StrFormat("getaddrinfo(%s): %s", host.c_str(),
                                     gai_strerror(rc)));
  }
  Status last = Status::IOError("no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      SetNoDelay(fd);
      ::freeaddrinfo(res);
      return std::make_unique<TcpConnection>(fd);
    }
    last = Errno("connect");
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

}  // namespace net
}  // namespace helix
