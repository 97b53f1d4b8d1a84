#include "ssp/tcp_service.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <vector>

#include "obs/span.h"
#include "obs/trace.h"

namespace sharoes::ssp {

namespace {
Status Errno(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Daemon-level connection metrics (process-wide; pointers cached once).
struct DaemonMetrics {
  obs::Counter* accepted;
  obs::Counter* dropped_by_fault;

  DaemonMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    accepted = reg.counter("ssp.conn.accepted");
    dropped_by_fault = reg.counter("ssp.conn.dropped_by_fault");
  }
};

DaemonMetrics& Metrics() {
  static DaemonMetrics* metrics = new DaemonMetrics();  // Never dies.
  return *metrics;
}
}  // namespace

Result<std::unique_ptr<TcpSspDaemon>> TcpSspDaemon::Start(SspServer* server,
                                                          uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Errno("bind");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Errno("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    ::close(fd);
    return Errno("getsockname");
  }
  return std::unique_ptr<TcpSspDaemon>(
      new TcpSspDaemon(server, fd, ntohs(addr.sin_port)));
}

TcpSspDaemon::TcpSspDaemon(SspServer* server, int listen_fd, uint16_t port)
    : server_(server), listen_fd_(listen_fd), port_(port) {
  active_conns_gauge_ = obs::MetricsRegistry::Global().AddGauge(
      "ssp.conn.active",
      [this] { return active_conns_.load(std::memory_order_relaxed); });
  acceptor_ = std::thread([this] { AcceptLoop(); });
}

TcpSspDaemon::~TcpSspDaemon() { Shutdown(); }

void TcpSspDaemon::Shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  // Unblock accept() (on Linux, shutdown() on a listening socket wakes
  // blocked accept with EINVAL). The fd is closed only after the acceptor
  // has joined, so accept() never races a recycled descriptor.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  ::close(listen_fd_);
  std::list<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    // Kick live worker threads out of their blocking recv() calls. A
    // connection's fd is guaranteed still open while !done (the serving
    // thread publishes done under this mutex before closing), so this
    // never touches a reused descriptor.
    for (const auto& conn : conns_) {
      if (!conn->done.load()) ::shutdown(conn->fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void TcpSspDaemon::ReapFinishedLocked() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if ((*it)->done.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void TcpSspDaemon::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // Listener broken; stop serving.
    }
    if (stopping_.load()) {
      // Raced with Shutdown; don't spawn workers it could miss.
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Metrics().accepted->Increment();
    std::lock_guard<std::mutex> lock(conns_mutex_);
    ReapFinishedLocked();  // Keep the list bounded by live connections.
    conns_.push_back(std::make_unique<Connection>(fd));
    Connection* conn = conns_.back().get();
    conn->thread = std::thread([this, conn] { ServeConnection(conn); });
  }
}

void TcpSspDaemon::ServeConnection(Connection* conn) {
  active_conns_.fetch_add(1, std::memory_order_relaxed);
  {
    net::TcpStream stream(conn->fd);
    for (;;) {
      auto request = stream.RecvFrame();
      if (!request.ok()) break;  // Peer closed or broken.
      // No daemon-level lock: the store is shard-striped and the server
      // dispatch is stateless, so connections proceed in parallel. That
      // parallelism is load-bearing for WAL group commit — concurrent
      // mutating requests from different connections meet inside
      // Wal::CommitThrough and share one fsync, which is where the
      // sublinear ssp.wal.fsyncs growth comes from.
      // Arm a span frame for this request: HandleWire starts the
      // timeline once the frame is parsed (traced requests only), and
      // the frame destructor publishes it after the response bytes hit
      // the socket — so the span covers parse through socket write.
      obs::ServerSpanFrame span_frame;
      bool sever = false;
      Bytes response = server_->HandleWire(*request, &sever);
      if (sever) {
        // An injected drop: tear the connection mid-frame with a partial
        // length header, so the client sees a cut in the middle of a
        // reply, the worst spot.
        Metrics().dropped_by_fault->Increment();
        const uint8_t torn_header[2] = {0xEF, 0xBE};
        ::send(conn->fd, torn_header, sizeof(torn_header), MSG_NOSIGNAL);
        break;
      }
      bool sent;
      {
        obs::PhaseScope write_phase(obs::Phase::kSocketWrite);
        sent = stream.SendFrame(response).ok();
      }
      if (!sent) break;
    }
    // Publish done before the stream destructor closes the fd, so a
    // concurrent Shutdown() skips this (about-to-be-recycled) descriptor.
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conn->done.store(true);
  }
  active_conns_.fetch_sub(1, std::memory_order_relaxed);
}

Result<std::unique_ptr<TcpSspChannel>> TcpSspChannel::Connect(
    const std::string& host, uint16_t port, const net::TcpTimeouts& timeouts) {
  SHAROES_ASSIGN_OR_RETURN(net::TcpStream stream,
                           net::TcpStream::Connect(host, port, timeouts));
  return std::unique_ptr<TcpSspChannel>(new TcpSspChannel(std::move(stream)));
}

Result<Response> TcpSspChannel::Call(const Request& req) {
  SHAROES_RETURN_IF_ERROR(Send(req));
  return Receive();
}

Status TcpSspChannel::Send(const Request& req) {
  // Stamp the ambient trace (if any) onto the wire frame so the server's
  // structured log lines join to the client op that caused them. The
  // simulated-WAN SspConnection deliberately does not do this: its byte
  // counts feed deterministic cost models that must not vary with
  // whether a trace happens to be active.
  obs::TraceContext tc = obs::CurrentTrace();
  Status sent = stream_.SendFrame(
      tc.active() ? req.SerializeWithTrace(tc.trace_id, tc.attempt)
                  : req.Serialize());
  if (!sent.ok() && sent.code() != StatusCode::kInvalidArgument) {
    stream_.CloseNow();
  }
  return sent;
}

Result<Response> TcpSspChannel::Receive() {
  auto wire = stream_.RecvFrame();
  if (!wire.ok()) {
    stream_.CloseNow();
    return wire.status();
  }
  return Response::Deserialize(*wire);
}

void NodeLinks::SetNodes(const std::vector<ClusterNode>& nodes) {
  std::map<uint32_t, Link> kept;
  for (const ClusterNode& node : nodes) {
    auto old = links_.find(node.id);
    if (old != links_.end() && old->second.node.host == node.host &&
        old->second.node.port == node.port) {
      kept[node.id] = std::move(old->second);
    } else {
      kept[node.id].node = node;
    }
  }
  links_ = std::move(kept);  // Destroying the rest closes their sockets.
}

std::vector<Result<Response>> NodeLinks::Exchange(
    const std::vector<Ask>& asks) {
  std::vector<Result<Response>> results(asks.size(),
                                        Status::IoError("no reply"));
  // Every frame goes out before any reply is read: the nodes work in
  // parallel.
  std::vector<std::pair<size_t, Link*>> pending;  // (ask index, link).
  for (size_t i = 0; i < asks.size(); ++i) {
    auto it = links_.find(asks[i].node_id);
    if (it == links_.end()) {
      results[i] = Status::NotFound("no cluster node with id " +
                                    std::to_string(asks[i].node_id));
      continue;
    }
    Link& link = it->second;
    if (link.channel == nullptr) {
      ++link.dials;
      auto dialed =
          TcpSspChannel::Connect(link.node.host, link.node.port, timeouts_);
      if (!dialed.ok()) {
        results[i] = dialed.status();
        continue;
      }
      link.channel = std::move(*dialed);
    }
    Status sent = link.channel->Send(*asks[i].req);
    if (sent.ok()) {
      pending.emplace_back(i, &link);
    } else {
      results[i] = sent;
      link.channel.reset();
    }
  }

  // One poll over the sockets still owing a reply; recv_ms 0 waits
  // forever.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeouts_.recv_ms);
  std::vector<pollfd> fds;
  while (!pending.empty()) {
    const int64_t left_ms = std::chrono::ceil<std::chrono::milliseconds>(
                                deadline - Clock::now())
                                .count();
    const int wait_ms = timeouts_.recv_ms == 0
                            ? -1
                            : static_cast<int>(std::max<int64_t>(0, left_ms));
    fds.clear();
    for (const auto& [i, link] : pending) {
      fds.push_back({link->channel->fd(), POLLIN, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), wait_ms);
    if (ready < 0 && errno == EINTR) continue;
    // A missed deadline (or a broken poll) fails every pending slot.
    const Status missed =
        ready > 0    ? Status::OK()
        : ready == 0 ? Status::DeadlineExceeded("recv timed out")
                     : Errno("poll");
    size_t still = 0;
    for (size_t j = 0; j < pending.size(); ++j) {
      auto [i, link] = pending[j];
      if (missed.ok() && fds[j].revents == 0) {
        pending[still++] = pending[j];
        continue;
      }
      results[i] = missed.ok() ? link->channel->Receive()
                               : Result<Response>(missed);
      if (!results[i].ok()) link->channel.reset();
    }
    pending.resize(still);
  }
  return results;
}

}  // namespace sharoes::ssp
