#include "obs/trace.h"

#include <atomic>
#include <random>
#include <string>

#include "obs/metrics.h"
#include "obs/span.h"
#include "util/bytes.h"

namespace sharoes::obs {

namespace {

thread_local TraceContext t_current_trace;

/// Storage for the outermost ClientSpan's timeline. One per thread is
/// enough: only the outermost op on a thread owns a timeline (nested
/// ops and in-process server handling charge phases into it instead).
thread_local SpanTimeline t_client_timeline;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

TraceContext CurrentTrace() { return t_current_trace; }

void SetCurrentTrace(const TraceContext& trace) { t_current_trace = trace; }

uint64_t NextTraceId() {
  static const uint64_t base = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) | rd();
  }();
  static std::atomic<uint64_t> next{1};
  uint64_t id =
      SplitMix64(base + next.fetch_add(1, std::memory_order_relaxed));
  return id != 0 ? id : 1;  // 0 means "no trace" on the wire.
}

std::string TraceIdHex(uint64_t trace_id) {
  Bytes be(8);
  for (int i = 7; i >= 0; --i, trace_id >>= 8) {
    be[i] = static_cast<uint8_t>(trace_id);
  }
  return HexEncode(be);
}

ClientSpan::ClientSpan(const char* op) : prev_(t_current_trace) {
  TraceContext ctx = prev_;
  if (!ctx.active()) {
    ctx.trace_id = NextTraceId();
    ctx.attempt = 0;
  }
  trace_id_ = ctx.trace_id;
  t_current_trace = ctx;
  if (MetricsEnabled()) {
    latency_ = MetricsRegistry::Global().histogram(
        std::string("client.op_latency_us.") + op);
    if (!TimelineActive()) {
      t_client_timeline.Start(trace_id_, op, 0, 'C');
      owns_timeline_ = true;
    }
    start_ = std::chrono::steady_clock::now();
  }
}

ClientSpan::~ClientSpan() {
  if (latency_ != nullptr) {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    latency_->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  if (owns_timeline_) t_client_timeline.Finish();
  t_current_trace = prev_;
}

RpcTraceScope::RpcTraceScope() : prev_(t_current_trace) {
  TraceContext ctx = prev_;
  if (!ctx.active()) ctx.trace_id = NextTraceId();
  ctx.attempt = 0;
  trace_id_ = ctx.trace_id;
  t_current_trace = ctx;
}

RpcTraceScope::~RpcTraceScope() { t_current_trace = prev_; }

void RpcTraceScope::set_attempt(uint8_t attempt) {
  t_current_trace.attempt = attempt;
}

}  // namespace sharoes::obs
