#include "net/tcp_stream.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace sharoes::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

bool IsTimeoutErrno() { return errno == EAGAIN || errno == EWOULDBLOCK; }

/// Writes all of `iov[0..count)`, resuming after partial writes. sendmsg,
/// not writev, for MSG_NOSIGNAL: a dead peer is EPIPE, never SIGPIPE.
Status SendAll(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsTimeoutErrno()) return Status::DeadlineExceeded("send timed out");
      return Errno("send");
    }
    size_t left = static_cast<size_t>(n);
    for (; count > 0 && left >= iov->iov_len; --count) left -= iov++->iov_len;
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

Status RecvAll(int fd, uint8_t* data, size_t len) {
  size_t got = 0;
  while (got < len) {
    ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n == 0) return Status::IoError("connection closed by peer");
    if (n < 0) {
      if (errno == EINTR) continue;
      if (IsTimeoutErrno()) return Status::DeadlineExceeded("recv timed out");
      return Errno("recv");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status SetSockTimeout(int fd, int option, uint32_t ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(timeout)");
  }
  return Status::OK();
}

/// Connects `fd` to `addr` within `timeout_ms` (0 = block forever) using
/// a non-blocking connect + poll; the socket is returned to blocking mode.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t addr_len,
                          uint32_t timeout_ms) {
  if (timeout_ms == 0) {
    if (::connect(fd, addr, addr_len) != 0) return Errno("connect");
    return Status::OK();
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl");
  }
  Status result = Status::OK();
  if (::connect(fd, addr, addr_len) != 0) {
    if (errno != EINPROGRESS) {
      result = Errno("connect");
    } else {
      pollfd pfd{fd, POLLOUT, 0};
      int n;
      do {
        n = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
      } while (n < 0 && errno == EINTR);
      if (n == 0) {
        result = Status::DeadlineExceeded("connect timed out");
      } else if (n < 0) {
        result = Errno("poll");
      } else {
        int err = 0;
        socklen_t err_len = sizeof(err);
        if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0) {
          result = Errno("getsockopt");
        } else if (err != 0) {
          result = Status::IoError(std::string("connect: ") +
                                   std::strerror(err));
        }
      }
    }
  }
  if (result.ok() && ::fcntl(fd, F_SETFL, flags) != 0) {
    result = Errno("fcntl");
  }
  return result;
}

}  // namespace

Result<TcpStream> TcpStream::Connect(const std::string& host, uint16_t port,
                                     const TcpTimeouts& timeouts) {
  // Resolve names (and literals) through getaddrinfo; "localhost" must
  // work, not just dotted quads.
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_protocol = IPPROTO_TCP;
  addrinfo* addrs = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &addrs);
  if (rc != 0) {
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "': " + ::gai_strerror(rc));
  }
  Status last = Status::IoError("no addresses for '" + host + "'");
  for (addrinfo* ai = addrs; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    last = ConnectWithTimeout(fd, ai->ai_addr, ai->ai_addrlen,
                              timeouts.connect_ms);
    if (!last.ok()) {
      ::close(fd);
      continue;
    }
    ::freeaddrinfo(addrs);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    TcpStream stream(fd);
    SHAROES_RETURN_IF_ERROR(
        stream.SetTimeouts(timeouts.send_ms, timeouts.recv_ms));
    return stream;
  }
  ::freeaddrinfo(addrs);
  return last;
}

TcpStream& TcpStream::operator=(TcpStream&& other) noexcept {
  if (this != &other) {
    CloseNow();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpStream::~TcpStream() { CloseNow(); }

void TcpStream::CloseNow() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpStream::SetTimeouts(uint32_t send_ms, uint32_t recv_ms) {
  if (fd_ < 0) return Status::FailedPrecondition("stream closed");
  if (send_ms > 0) {
    SHAROES_RETURN_IF_ERROR(SetSockTimeout(fd_, SO_SNDTIMEO, send_ms));
  }
  if (recv_ms > 0) {
    SHAROES_RETURN_IF_ERROR(SetSockTimeout(fd_, SO_RCVTIMEO, recv_ms));
  }
  return Status::OK();
}

Status TcpStream::SendFrame(const Bytes& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("stream closed");
  if (payload.size() > kMaxFrame) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds kMaxFrame");
  }
  uint8_t header[4];
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) header[i] = static_cast<uint8_t>(len >> (8 * i));
  // One syscall: two sends put the header in a segment of its own.
  iovec iov[2] = {{header, 4},
                  {const_cast<uint8_t*>(payload.data()), payload.size()}};
  return SendAll(fd_, iov, 2);
}

Result<Bytes> TcpStream::RecvFrame() {
  if (fd_ < 0) return Status::FailedPrecondition("stream closed");
  uint8_t header[4];
  SHAROES_RETURN_IF_ERROR(RecvAll(fd_, header, 4));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (len > kMaxFrame) return Status::Corruption("oversized frame");
  Bytes payload(len);
  if (len > 0) {
    SHAROES_RETURN_IF_ERROR(RecvAll(fd_, payload.data(), len));
  }
  return payload;
}

}  // namespace sharoes::net
