// The SSP data-serving tool (paper §IV) and the client-side connection.
//
// SspServer decodes protocol requests and executes them against an
// ObjectStore — nothing else; it cannot decrypt, verify or authorize.
// SspConnection is the client's stub: it serializes each request,
// charges the round trip on the simulated WAN, and decodes the response,
// exactly as a TCP connection to a remote SSP would behave (minus the
// wall-clock waiting).

#ifndef SHAROES_SSP_SSP_SERVER_H_
#define SHAROES_SSP_SSP_SERVER_H_

#include <atomic>
#include <vector>

#include "net/network_model.h"
#include "obs/metrics.h"
#include "ssp/fault_injection.h"
#include "ssp/object_store.h"

namespace sharoes::ssp {

class PlacementRing;
class Wal;

/// Server side: request execution against the store.
///
/// Handle/HandleWire hold no server-level state beyond the thread-safe
/// sharded ObjectStore, so any number of connection threads may call
/// them in parallel (see TcpSspDaemon).
class SspServer {
 public:
  SspServer() { RegisterStoreGauges(); }
  /// Serves a pre-configured store (e.g. a custom shard count, or one
  /// loaded from a snapshot).
  explicit SspServer(ObjectStore store) : store_(std::move(store)) {
    RegisterStoreGauges();
  }

  /// Handles one serialized request, returning a serialized response.
  /// Safe to call concurrently from multiple threads. A transport that
  /// can cut its connection passes `sever`: an injected kDropConnection
  /// then sets `*sever` and returns no reply, and the transport severs
  /// mid-frame. Without `sever` (in process) the drop degrades to
  /// kFailRequest, the closest an in-process server can express.
  Bytes HandleWire(const Bytes& request_bytes, bool* sever = nullptr);
  /// Handles one decoded request. Safe to call concurrently.
  Response Handle(const Request& req);

  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Installs the fault injector, consulted once per request by
  /// HandleWire before executing it (nullptr uninstalls). The one fault
  /// hook: TcpSspDaemon serves through HandleWire, so it is faulted here
  /// too. `injector` must be thread-safe and outlive the server.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }

  /// Attaches a write-ahead log (nullptr detaches). Every mutating op is
  /// appended before it touches the store and each top-level request is
  /// fsynced per the WAL's sync policy before its response leaves
  /// Handle(), so an acknowledged write is recoverable. The Wal must
  /// already be Open()ed over this server's store and must outlive the
  /// server. Install before serving begins — the pointer is read per
  /// request without further synchronization against in-flight ops.
  void set_wal(Wal* wal) { wal_.store(wal, std::memory_order_release); }

  /// Arms the shard-ownership check (ssp/placement.h): every store-scoped
  /// op — top-level or batch sub-op — whose routing key this daemon does
  /// not replicate is answered kWrongShard without executing or logging
  /// it, so a client holding a stale cluster config can never scatter
  /// writes onto non-owners. nullptr disarms (the single-daemon default:
  /// no config, own everything). `ring` must outlive the server; install
  /// before serving begins, like set_wal.
  void set_placement(const PlacementRing* ring, uint32_t node_id) {
    placement_node_ = node_id;
    placement_.store(ring, std::memory_order_release);
  }

 private:
  /// Executes one non-batch op. When the op mutates under a WAL,
  /// `*max_wal_seq` is raised to the sequence its log append was
  /// assigned — Handle() commits through the highest one, so a whole
  /// batch shares a single durability point. `want_version` is the
  /// top-level frame's versioned-read flag (a kBatch's flag covers all
  /// sub-reads): live hits gain an 8-byte generation suffix, tombstones
  /// answer kDeleted instead of kNotFound. A mutation of a `replayed`
  /// batch (IsAppliedBatch) is answered kOk, neither logged nor applied.
  Response HandleOne(const Request& req, bool want_version, bool replayed,
                     uint64_t* max_wal_seq);
  /// Publishes this server's store accounting as registry gauges
  /// (ssp.store.*). Several live servers sum in the snapshot.
  void RegisterStoreGauges();

  ObjectStore store_;
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  std::atomic<Wal*> wal_{nullptr};
  std::atomic<const PlacementRing*> placement_{nullptr};
  uint32_t placement_node_ = 0;
  // Declared after store_ so the gauges (which read store_) unregister
  // before the store dies.
  std::vector<obs::MetricsRegistry::GaugeHandle> store_gauges_;
};

/// Client-side channel to an SSP. Two implementations exist: the
/// simulated-WAN SspConnection below (benchmarks, tests) and the real
/// socket-backed net::TcpSspChannel (see net/tcp_channel.h).
class SspChannel {
 public:
  virtual ~SspChannel() = default;
  /// Full protocol round trip. Corruption statuses are returned (not
  /// asserted) since a malicious SSP may send garbage.
  virtual Result<Response> Call(const Request& req) = 0;
};

/// In-process channel over the simulated WAN: serialize, charge the
/// network model, execute, deserialize.
class SspConnection : public SspChannel {
 public:
  SspConnection(SspServer* server, net::Transport* transport)
      : server_(server), transport_(transport) {}

  Result<Response> Call(const Request& req) override;

 private:
  SspServer* server_;        // Not owned.
  net::Transport* transport_;  // Not owned.
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_SSP_SERVER_H_
