// The simulated wide-area network between the SHAROES client and the SSP.
//
// The paper's testbed: SSP in Atlanta, client in Birmingham (~150 miles),
// home DSL with measured 850 kbit/s up and 350 kbit/s down. We model each
// request as one round trip: two one-way latencies plus serialization time
// of the request on the uplink and of the response on the downlink. All
// charges go to the shared SimClock under CostCategory::kNetwork.

#ifndef SHAROES_NET_NETWORK_MODEL_H_
#define SHAROES_NET_NETWORK_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "util/sim_clock.h"

namespace sharoes::net {

/// Link parameters of the client <-> SSP path.
struct NetworkModel {
  double latency_ms = 45.0;      // One-way propagation + queueing delay.
  double uplink_bps = 850'000;   // Client -> SSP.
  double downlink_bps = 350'000; // SSP -> client.
  double per_request_ms = 8.0;   // Fixed TCP/framing overhead per request.

  /// The paper's DSL testbed (default).
  static NetworkModel PaperDsl() { return NetworkModel(); }
  /// A LAN-class link for ablations.
  static NetworkModel Lan() {
    return NetworkModel{0.2, 100e6, 100e6, 0.1};
  }
  /// Free network for functional tests.
  static NetworkModel Zero() { return NetworkModel{0, 0, 0, 0}; }

  /// Virtual milliseconds for one request/response exchange.
  double RoundTripMs(size_t request_bytes, size_t response_bytes) const;
};

/// Charges round trips to a SimClock and keeps traffic counters.
class Transport {
 public:
  Transport(SimClock* clock, const NetworkModel& model)
      : clock_(clock), model_(model) {}

  /// Accounts one request/response round trip.
  void ChargeRoundTrip(size_t request_bytes, size_t response_bytes);

  struct Counters {
    uint64_t round_trips = 0;
    uint64_t bytes_up = 0;
    uint64_t bytes_down = 0;
  };
  const Counters& counters() const { return counters_; }
  void ResetCounters() { counters_ = Counters(); }

  const NetworkModel& model() const { return model_; }
  void set_model(const NetworkModel& m) { model_ = m; }

 private:
  SimClock* clock_;  // Not owned; may be null (no charging).
  NetworkModel model_;
  Counters counters_;
};

}  // namespace sharoes::net

#endif  // SHAROES_NET_NETWORK_MODEL_H_
