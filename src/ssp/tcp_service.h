// The SSP as a real network service: a threaded TCP daemon serving an
// SspServer, and the client channel that talks to it. The simulated-WAN
// SspConnection remains the default for benchmarks (deterministic costs);
// this pair exists so the SSP can run across processes or machines
// (`tools/sharoes_sspd`), exactly as the paper's data-serving tool does.

#ifndef SHAROES_SSP_TCP_SERVICE_H_
#define SHAROES_SSP_TCP_SERVICE_H_

#include <atomic>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp_stream.h"
#include "obs/metrics.h"
#include "ssp/placement.h"
#include "ssp/ssp_server.h"

namespace sharoes::ssp {

/// Serves an SspServer over TCP with one thread per connection.
/// Connection threads execute requests in parallel — the ObjectStore
/// behind the SspServer is shard-striped and thread-safe, so no
/// daemon-level serialization is needed. Faults are injected by the
/// server's hook (SspServer::set_fault_injector); an injected
/// kDropConnection really severs the socket here, mid-frame (a torn
/// partial header goes out first, so the client observes a cut, not a
/// clean close).
class TcpSspDaemon {
 public:
  /// Binds to 127.0.0.1:`port` (0 = ephemeral) and starts the accept
  /// loop on a background thread.
  static Result<std::unique_ptr<TcpSspDaemon>> Start(SspServer* server,
                                                     uint16_t port);
  ~TcpSspDaemon();

  uint16_t port() const { return port_; }
  /// Stops accepting, unblocks in-flight connections, and joins all
  /// threads. Idempotent; safe to call while clients are mid-request.
  void Shutdown();

 private:
  /// One live connection. `fd` stays open (owned by the serving thread's
  /// TcpStream) until `done` is published under conns_mutex_, so Shutdown
  /// never calls ::shutdown() on a recycled descriptor.
  struct Connection {
    explicit Connection(int fd) : fd(fd) {}
    int fd;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  TcpSspDaemon(SspServer* server, int listen_fd, uint16_t port);
  void AcceptLoop();
  void ServeConnection(Connection* conn);
  /// Joins and drops finished connections. Caller holds conns_mutex_.
  void ReapFinishedLocked();

  SspServer* server_;
  int listen_fd_;
  uint16_t port_;
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> active_conns_{0};
  // Declared after active_conns_ so the gauge (which reads it)
  // unregisters first on destruction.
  obs::MetricsRegistry::GaugeHandle active_conns_gauge_;
  std::thread acceptor_;
  std::mutex conns_mutex_;
  std::list<std::unique_ptr<Connection>> conns_;
};

/// Client-side channel over a real TCP connection. Not thread-safe: one
/// channel per client thread (each carries its own socket), matching how
/// enterprise clients each hold their own SSP connection.
class TcpSspChannel : public SspChannel {
 public:
  /// `timeouts` arms the stream's connect deadline and per-syscall IO
  /// deadlines; expiry surfaces as Status::DeadlineExceeded.
  static Result<std::unique_ptr<TcpSspChannel>> Connect(
      const std::string& host, uint16_t port,
      const net::TcpTimeouts& timeouts = {});

  /// Send, then Receive. A failed Send or Receive closes the stream (it
  /// may be mid-frame, or owe a reply a later call would take as its
  /// own), so every later call fails until the owner redials; only an
  /// oversized request, refused before any byte is sent, leaves it open.
  Result<Response> Call(const Request& req) override;
  /// Writes `req`'s frame, stamped with the ambient trace (if any).
  Status Send(const Request& req);
  Result<Response> Receive();
  int fd() const { return stream_.fd(); }

 private:
  explicit TcpSspChannel(net::TcpStream stream)
      : stream_(std::move(stream)) {}
  net::TcpStream stream_;
};

/// The one way the cluster paths reach replicas (ShardedChannel's rounds
/// and read repair, the scrubber's reads and repairs): one lazily dialed
/// TcpSspChannel per node id. A link closes when a call on it fails or
/// SetNodes moves or removes its node; the next ask redials. Not
/// thread-safe, and makes no threads.
class NodeLinks {
 public:
  NodeLinks(const std::vector<ClusterNode>& nodes,
            const net::TcpTimeouts& timeouts)
      : timeouts_(timeouts) {
    SetNodes(nodes);
  }
  /// Adopts a refreshed node list; keeps a link only at its old endpoint.
  void SetNodes(const std::vector<ClusterNode>& nodes);

  /// One request for one node; an exchange asks each node at most once.
  struct Ask {
    uint32_t node_id = 0;
    const Request* req = nullptr;
  };
  /// Dials the asked nodes without a live link, writes every frame, then
  /// collects the replies on the calling thread with one poll() and one
  /// recv deadline for all of them. Result i answers asks[i]. A slot
  /// fails alone (unknown id, refused dial, failed send or receive,
  /// missed deadline), and its link closes, so a late reply is never
  /// read as the node's next answer.
  std::vector<Result<Response>> Exchange(const std::vector<Ask>& asks);

  /// Dials made on `node_id`'s current link, failed ones included.
  uint64_t dials(uint32_t node_id) const {
    auto it = links_.find(node_id);
    return it == links_.end() ? 0 : it->second.dials;
  }
  size_t live_links() const {
    size_t live = 0;
    for (const auto& [id, link] : links_) live += link.channel != nullptr;
    return live;
  }

 private:
  struct Link {
    ClusterNode node;
    std::unique_ptr<TcpSspChannel> channel;  // Null until dialed.
    uint64_t dials = 0;
  };
  net::TcpTimeouts timeouts_;
  std::map<uint32_t, Link> links_;  // By node id.
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_TCP_SERVICE_H_
