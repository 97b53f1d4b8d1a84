// A minimal blocking TCP stream with length-prefixed message framing
// (the paper §IV: "we use TCP/IP sockets for the communication with the
// SSP"). Used by the ssp::TcpSspDaemon / ssp::TcpSspChannel pair.
//
// Fault tolerance: the SSP lives across an untrusted wide-area link, so
// every blocking primitive can carry a deadline. Deadline expiry is
// surfaced as Status::DeadlineExceeded — distinct from kIoError — so
// callers (core::RetryingConnection) can tell "peer is slow" from "peer
// is broken" and pick a retry strategy per code.

#ifndef SHAROES_NET_TCP_STREAM_H_
#define SHAROES_NET_TCP_STREAM_H_

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::net {

/// Largest frame either side will emit or accept (sanity cap, both
/// directions: SendFrame rejects oversized payloads with InvalidArgument
/// before writing a header, RecvFrame rejects oversized length prefixes
/// with Corruption).
inline constexpr uint32_t kMaxFrame = 64u << 20;  // 64 MiB.

/// Per-stream deadlines in milliseconds; 0 means block forever (the
/// pre-fault-tolerance behaviour). Send/recv deadlines apply per socket
/// syscall (SO_SNDTIMEO / SO_RCVTIMEO), the connect deadline to the
/// whole non-blocking connect of one address attempt.
struct TcpTimeouts {
  uint32_t connect_ms = 0;
  uint32_t send_ms = 0;
  uint32_t recv_ms = 0;
};

/// A connected, blocking TCP stream. Frames are a 4-byte little-endian
/// length followed by the payload.
class TcpStream {
 public:
  /// Connects to host:port. `host` may be an IPv4/IPv6 literal or a name
  /// ("localhost"); names resolve via getaddrinfo and every returned
  /// address is tried in order until one connects. With a connect
  /// deadline, each address attempt gets the full budget; expiry yields
  /// DeadlineExceeded (unless a later address connects).
  static Result<TcpStream> Connect(const std::string& host, uint16_t port,
                                   const TcpTimeouts& timeouts = {});
  /// Wraps an accepted file descriptor (takes ownership).
  explicit TcpStream(int fd) : fd_(fd) {}
  TcpStream(TcpStream&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;
  ~TcpStream();

  /// (Re)arms the per-syscall IO deadlines; 0 disables one.
  Status SetTimeouts(uint32_t send_ms, uint32_t recv_ms);

  /// Sends one framed message. InvalidArgument if the payload exceeds
  /// kMaxFrame (the peer would reject the frame anyway, and a >4 GiB
  /// payload would silently truncate through the u32 length header).
  Status SendFrame(const Bytes& payload);
  /// Receives one framed message (blocking). IoError on EOF/failure,
  /// DeadlineExceeded if an armed recv deadline expires.
  Result<Bytes> RecvFrame();

  int fd() const { return fd_; }
  void CloseNow();

 private:
  int fd_ = -1;
};

}  // namespace sharoes::net

#endif  // SHAROES_NET_TCP_STREAM_H_
