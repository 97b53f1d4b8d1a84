// The SSP as a real network service: a threaded TCP daemon serving an
// SspServer, and the client channel that talks to it. The simulated-WAN
// SspConnection remains the default for benchmarks (deterministic costs);
// this pair exists so the SSP can run across processes or machines
// (`tools/sharoes_sspd`), exactly as the paper's data-serving tool does.

#ifndef SHAROES_SSP_TCP_SERVICE_H_
#define SHAROES_SSP_TCP_SERVICE_H_

#include <atomic>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "net/tcp_stream.h"
#include "obs/metrics.h"
#include "ssp/ssp_server.h"

namespace sharoes::ssp {

/// Serves an SspServer over TCP with one thread per connection.
/// Connection threads execute requests in parallel — the ObjectStore
/// behind the SspServer is shard-striped and thread-safe, so no
/// daemon-level serialization is needed.
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

  /// Installs a fault injector consulted once per received frame, before
  /// the request executes (nullptr uninstalls). Must be thread-safe and
  /// outlive the daemon. Unlike the SspServer hook, kDropConnection here
  /// really severs the socket mid-frame (a torn partial header is sent
  /// first, so the client observes a cut, not a clean close).
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

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
  std::atomic<FaultInjector*> fault_injector_{nullptr};
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
  /// deadlines; expiry surfaces from Call as Status::DeadlineExceeded.
  /// A failed send or receive closes the stream: the channel is then
  /// dead and the caller redials.
  static Result<std::unique_ptr<TcpSspChannel>> Connect(
      const std::string& host, uint16_t port,
      const net::TcpTimeouts& timeouts = {});

  Result<Response> Call(const Request& req) override;

 private:
  explicit TcpSspChannel(net::TcpStream stream)
      : stream_(std::move(stream)) {}
  net::TcpStream stream_;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_TCP_SERVICE_H_
