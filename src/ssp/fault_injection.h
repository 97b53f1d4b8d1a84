// Fault injection for the SSP serving path.
//
// The paper's threat model is an *untrusted, remote* SSP: the transport
// can stall, the daemon can crash and restart, and a malicious provider
// can tamper with replies. The client stack (deadlines in net::TcpStream,
// retries in core::RetryingConnection, integrity checks in the object
// codec) claims to survive all of that; this layer exists to prove it.
// A FaultInjector installed on SspServer (the one hook; TcpSspDaemon
// serves through it) is consulted once per request and can fail it,
// delay it, corrupt the reply payload, or sever the connection
// mid-frame. Kill/restart of the whole daemon is
// orchestrated by the caller (tests / operators), not the injector.

#ifndef SHAROES_SSP_FAULT_INJECTION_H_
#define SHAROES_SSP_FAULT_INJECTION_H_

#include <cstdint>
#include <mutex>

#include "util/bytes.h"
#include "util/random.h"

namespace sharoes::ssp {

/// One decision about how to mistreat a single request.
struct FaultAction {
  enum class Kind : uint8_t {
    kNone,             // Serve normally.
    kFailRequest,      // Do not execute; reply RespStatus::kError.
    kDelayResponse,    // Execute, but sleep delay_ms before replying.
    kCorruptResponse,  // Execute, then flip one reply payload byte.
    kDropConnection,   // Sever the connection mid-frame (over TCP; an
                       // in-process caller, with no connection to cut,
                       // gets kFailRequest, the closest it can express).
  };
  Kind kind = Kind::kNone;
  uint32_t delay_ms = 0;      // kDelayResponse.
  uint8_t corrupt_mask = 1;   // kCorruptResponse; XORed into the byte.
};

/// Consulted once per request, before execution, with the request's wire
/// bytes. Implementations must be thread-safe: the TCP daemon serves
/// connections in parallel.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual FaultAction OnRequest(const Bytes& wire_request) = 0;
};

/// Seed-deterministic probabilistic injector: all draws come from one
/// seeded generator, so a given (seed, serialized request order) always
/// produces the same fault schedule — tests replay identical schedules
/// across runs. With several client connections the arrival order (and
/// hence the schedule) is only as deterministic as the clients are.
/// Probabilities are evaluated in declared order; the first hit wins.
class FaultPolicy : public FaultInjector {
 public:
  struct Options {
    uint64_t seed = 1;
    double fail_prob = 0.0;
    double delay_prob = 0.0;
    double corrupt_prob = 0.0;
    double drop_prob = 0.0;
    uint32_t delay_ms = 5;
    uint8_t corrupt_mask = 1;
  };
  /// Totals per action, for test assertions ("the schedule really did
  /// inject ≥ N faults").
  struct Counts {
    uint64_t requests = 0;
    uint64_t failed = 0;
    uint64_t delayed = 0;
    uint64_t corrupted = 0;
    uint64_t dropped = 0;
    uint64_t injected() const {
      return failed + delayed + corrupted + dropped;
    }
  };

  explicit FaultPolicy(const Options& options)
      : options_(options), rng_(options.seed) {}

  FaultAction OnRequest(const Bytes& wire_request) override;
  Counts counts() const;

 private:
  const Options options_;
  mutable std::mutex mu_;
  Rng rng_;
  Counts counts_;
};

/// XORs `mask` into one byte of the first non-empty payload found in a
/// serialized Response (descending into batch sub-responses). Leaves the
/// framing intact so the reply still *parses* — the point is that the
/// client's integrity layer, not the transport, must be what rejects the
/// tampered bytes. Returns false (wire untouched) if every payload is
/// empty or the buffer is not a plausible response encoding.
bool CorruptResponsePayload(Bytes* wire_response, uint8_t mask);

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_FAULT_INJECTION_H_
