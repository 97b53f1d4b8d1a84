#include "core/retrying_connection.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ssp/tcp_service.h"

namespace sharoes::core {

namespace {
/// Process-wide retry accounting (every RetryingConnection sums here;
/// per-instance counts remain available via retries()/reconnects()).
struct RetryMetrics {
  obs::Counter* calls;
  obs::Counter* retries;
  obs::Counter* reconnects;
  obs::Counter* exhausted;

  RetryMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    calls = reg.counter("client.retry.calls");
    retries = reg.counter("client.retry.retries");
    reconnects = reg.counter("client.retry.reconnects");
    exhausted = reg.counter("client.retry.exhausted");
  }
};

RetryMetrics& Metrics() {
  static RetryMetrics* metrics = new RetryMetrics();  // Never dies.
  return *metrics;
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

RetryingConnection::ChannelFactory RetryingConnection::Dialer(
    std::string host, uint16_t port, const net::TcpTimeouts& timeouts) {
  return [host = std::move(host), port,
          timeouts]() -> Result<std::unique_ptr<ssp::SspChannel>> {
    auto channel = ssp::TcpSspChannel::Connect(host, port, timeouts);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<ssp::SspChannel>(std::move(*channel));
  };
}

Result<ssp::Response> RetryingConnection::Call(const ssp::Request& req) {
  Metrics().calls->Increment();
  // Join (or start) the ambient trace so every wire attempt below
  // carries the same trace id with an increasing attempt number; the
  // server's structured log lines then reconstruct the retry story.
  obs::RpcTraceScope trace_scope;
  std::string last_error = "no attempt made";
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
        if (!IsRetryable(fresh.status())) return fresh.status();
        last_error = fresh.status().ToString();
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
      if (resp->status != ssp::RespStatus::kError) return resp;
      // Not executed (fault injection, overload) or executed without a
      // durability guarantee (WAL sync failure): replaying either is safe.
      last_error = "SSP reported transient error";
      continue;
    }
    if (!IsRetryable(resp.status())) return resp.status();
    last_error = resp.status().ToString();
    // The socket is in an unknown state (possibly mid-frame); drop it
    // and reconnect on the next attempt.
    channel_.reset();
  }
  Metrics().exhausted->Increment();
  obs::Log(obs::Severity::kError, "client.retry_exhausted",
           {{"op", ssp::OpCodeName(req.op)},
            {"trace", obs::TraceIdHex(obs::CurrentTrace().trace_id)},
            {"attempts", static_cast<uint64_t>(options_.max_attempts)},
            {"error", last_error}});
  return Status::Unavailable(last_error);
}

}  // namespace sharoes::core
