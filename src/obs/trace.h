// Trace propagation: a 64-bit trace id + retry attempt number that
// travels from the client operation that caused a request, through the
// client's retry loop (RetryingConnection or ShardedChannel's rounds),
// onto the wire (a backward-compatible Request extension, see
// ssp/message.h), and into the SSP's structured log — so one
// server-side log line can be joined to the exact client op and retry
// attempt behind it.
//
// The context is ambient (thread-local): a SharoesClient operation opens
// a ClientSpan, which assigns a fresh trace id unless one is already
// active (nested ops inherit). The retry loop stamps the attempt number
// per try. Channels read CurrentTrace() at serialization time; a
// zero trace id means "no trace" and keeps the wire bytes identical to
// the pre-extension format.

#ifndef SHAROES_OBS_TRACE_H_
#define SHAROES_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace sharoes::obs {

class Histogram;

struct TraceContext {
  uint64_t trace_id = 0;  // 0 = absent.
  uint8_t attempt = 0;    // 0-based retry attempt within one Call.

  bool active() const { return trace_id != 0; }
};

/// The calling thread's ambient trace (zero-initialized by default).
TraceContext CurrentTrace();
void SetCurrentTrace(const TraceContext& trace);

/// Process-unique nonzero trace id: an atomic counter mixed through
/// SplitMix64 with a per-process random base, so ids from concurrent
/// clients on one host do not collide or reveal sequence.
uint64_t NextTraceId();

/// Fixed-width lowercase hex rendering used in log lines ("3f9a...").
std::string TraceIdHex(uint64_t trace_id);

/// RAII span around one logical client operation: ensures an ambient
/// trace id exists (restoring the previous context on destruction),
/// records the op's wall-clock latency into the histogram
/// "client.op_latency_us.<op>" of the global registry, and — when this
/// is the outermost op on the thread — installs a span timeline so
/// PhaseScopes along the op attribute its time (obs/span.h). `op` must
/// be a string literal (the timeline stores the pointer).
class ClientSpan {
 public:
  explicit ClientSpan(const char* op);
  ~ClientSpan();
  ClientSpan(const ClientSpan&) = delete;
  ClientSpan& operator=(const ClientSpan&) = delete;

  uint64_t trace_id() const { return trace_id_; }

 private:
  TraceContext prev_;
  uint64_t trace_id_ = 0;
  Histogram* latency_ = nullptr;  // Null when metrics are disabled.
  bool owns_timeline_ = false;
  std::chrono::steady_clock::time_point start_;
};

/// RAII used by the retry loops around one Call: adopts the ambient
/// trace (or mints one if the caller is uninstrumented) and exposes
/// set_attempt() for the retry loop. Restores the previous context on
/// destruction.
class RpcTraceScope {
 public:
  RpcTraceScope();
  ~RpcTraceScope();
  RpcTraceScope(const RpcTraceScope&) = delete;
  RpcTraceScope& operator=(const RpcTraceScope&) = delete;

  void set_attempt(uint8_t attempt);
  uint64_t trace_id() const { return trace_id_; }

 private:
  TraceContext prev_;
  uint64_t trace_id_ = 0;
};

}  // namespace sharoes::obs

#endif  // SHAROES_OBS_TRACE_H_
