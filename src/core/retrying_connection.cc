#include "core/retrying_connection.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sharoes::core {

namespace {
/// Process-wide retry accounting (every RetryingConnection sums here;
/// per-instance counts remain available via retries()/reconnects()).
struct RetryMetrics {
  obs::Counter* calls;
  obs::Counter* retries;
  obs::Counter* reconnects;
  obs::Counter* exhausted;
  obs::Counter* batch_sub_retries;

  RetryMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    calls = reg.counter("client.retry.calls");
    retries = reg.counter("client.retry.retries");
    reconnects = reg.counter("client.retry.reconnects");
    exhausted = reg.counter("client.retry.exhausted");
    batch_sub_retries = reg.counter("client.retry.batch_sub_retries");
  }
};

RetryMetrics& Metrics() {
  static RetryMetrics* metrics = new RetryMetrics();  // Never dies.
  return *metrics;
}

/// True iff the request is a batch containing only reads. Such a batch
/// may be replayed wholesale when any sub-op reports kError: re-running
/// the already-succeeded gets is free of side effects. A batch with any
/// mutation is NOT retried on sub-errors here — the server already
/// answers a top-level kError when durability fails, and partial sub-op
/// outcomes are the client's ExecuteBatch error to report.
bool IsReadOnlyBatch(const ssp::Request& req) {
  if (req.op != ssp::OpCode::kBatch) return false;
  for (const ssp::Request& sub : req.batch) {
    if (ssp::IsMutatingOp(sub.op)) return false;
  }
  return true;
}

bool HasTransientSubError(const ssp::Response& resp) {
  for (const ssp::Response& sub : resp.batch) {
    if (sub.status == ssp::RespStatus::kError) return true;
  }
  return false;
}

/// True iff the request may be transparently re-sent after it might
/// already have executed (transport failure post-send, or a durability
/// kError from the server after the store apply). A batch — the shape
/// the client's write-behind layer ships — is replay-safe only when
/// EVERY sub-op is individually idempotent; this is the gate that keeps
/// a future non-idempotent opcode from riding a blanket retry.
bool IsReplaySafe(const ssp::Request& req) {
  if (req.op == ssp::OpCode::kBatch) {
    for (const ssp::Request& sub : req.batch) {
      if (!ssp::IsIdempotentOp(sub.op)) return false;
    }
    return true;
  }
  return ssp::IsIdempotentOp(req.op);
}
}  // namespace

void SleepBackoff(uint32_t initial_ms, uint32_t max_ms, int retry, Rng* rng) {
  uint64_t base = initial_ms;
  for (int i = 0; i < retry && base < max_ms; ++i) base *= 2;
  base = std::min<uint64_t>(base, max_ms);
  double factor = 1.0 + kBackoffJitter * (2.0 * rng->NextDouble() - 1.0);
  base = static_cast<uint64_t>(static_cast<double>(base) * factor);
  if (base > 0) std::this_thread::sleep_for(std::chrono::milliseconds(base));
}

RetryingConnection::RetryingConnection(ChannelFactory factory,
                                       const RetryOptions& options)
    : factory_(std::move(factory)),
      options_(options),
      rng_(options.seed != 0 ? Rng(options.seed) : Rng()) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

Result<ssp::Response> RetryingConnection::Call(const ssp::Request& req) {
  Metrics().calls->Increment();
  // Join (or start) the ambient trace so every wire attempt below
  // carries the same trace id with an increasing attempt number; the
  // server's structured log lines then reconstruct the retry story.
  obs::RpcTraceScope trace_scope;
  const bool replay_safe = IsReplaySafe(req);
  Status last_error = Status::IoError("no attempt made");
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    trace_scope.set_attempt(static_cast<uint8_t>(std::min(attempt, 255)));
    if (attempt > 0) {
      ++retries_;
      Metrics().retries->Increment();
      SleepBackoff(options_.initial_backoff_ms, options_.max_backoff_ms,
                   attempt - 1, &rng_);
    }
    if (channel_ == nullptr) {
      auto fresh = factory_();
      if (!fresh.ok()) {
        last_error = fresh.status();
        if (!IsRetryable(last_error)) return last_error;
        continue;
      }
      channel_ = std::move(*fresh);
      if (attempt > 0) {
        ++reconnects_;
        Metrics().reconnects->Increment();
      }
    }
    auto resp = channel_->Call(req);
    if (resp.ok()) {
      if (resp->status == ssp::RespStatus::kError) {
        // Transient server-side failure. For reads and idempotent
        // mutations the request either was not executed (fault
        // injection, overload) or executed without a durability
        // guarantee (WAL sync failure) — both are safe to replay. A
        // non-idempotent request might have taken effect in the second
        // case, so it must surface instead of being re-sent.
        last_error = Status::IoError("SSP reported transient error");
        if (!replay_safe) return last_error;
        continue;
      }
      if (resp->status == ssp::RespStatus::kOk && IsReadOnlyBatch(req) &&
          HasTransientSubError(*resp)) {
        // A per-sub-op injected fault inside a pure-read batch: replaying
        // the whole batch is side-effect free, so absorb it here instead
        // of surfacing Unavailable to the read path.
        Metrics().batch_sub_retries->Increment();
        last_error =
            Status::IoError("SSP reported transient error for batch sub-op");
        continue;
      }
      return resp;
    }
    last_error = resp.status();
    if (!IsRetryable(last_error)) return last_error;
    // The socket is in an unknown state (possibly mid-frame); drop it
    // and reconnect on the next attempt. A transport failure after the
    // frame left means the server may have executed the request, so
    // only replay-safe requests go around again.
    if (!replay_safe) return last_error;
    channel_.reset();
  }
  Metrics().exhausted->Increment();
  obs::Log(obs::Severity::kError, "client.retry_exhausted",
           {{"op", ssp::OpCodeName(req.op)},
            {"trace", obs::TraceIdHex(obs::CurrentTrace().trace_id)},
            {"attempts", static_cast<uint64_t>(options_.max_attempts)},
            {"error", last_error.ToString()}});
  return last_error;
}

}  // namespace sharoes::core
