// RetryingConnection: transport fault tolerance for SSP channels.
//
// A Connection decorator that makes a flaky wide-area link look like a
// reliable one: on transport failure (kIoError from a severed socket,
// kDeadlineExceeded from an armed deadline, RespStatus::kError from an
// overloaded or fault-injected daemon) it reconnects through a channel
// factory and retries the request with capped exponential backoff plus
// jitter. SharoesClient and the Provisioner sit behind it unchanged —
// they just see an SspChannel.
//
// Why retry is safe: every request in ssp/message.h is a put/get/delete
// addressed by absolute coordinates (inode, selector, user, group,
// block) — there are no appends, counters, or compare-and-swaps — so
// executing a request twice (e.g. the daemon applied a put but died
// before replying, and the retry replays it) leaves the store in exactly
// the state of executing it once. Batches are flat vectors of such
// requests, and the server acknowledges a re-sent batch that mutates a
// key twice without applying it again (DESIGN.md §12). The safety is
// the server's guarantee, pinned by RetryIdempotence in
// tests/core/client_fault_test.cc, so every request is retried alike.
//
// A spent budget reads as kUnavailable carrying the last error's text,
// as an unfinished quorum does on a cluster (core::ShardedChannel): to
// everything above the channel, "the SSP did not answer this time".
//
// What is deliberately NOT retried: kCorruption (a malicious SSP sending
// garbage must surface, per the threat model), kIntegrityError (ditto —
// tampering is the integrity layer's verdict, and masking it behind a
// retry would hide an attack), and caller errors (kInvalidArgument etc.).

#ifndef SHAROES_CORE_RETRYING_CONNECTION_H_
#define SHAROES_CORE_RETRYING_CONNECTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "net/tcp_stream.h"
#include "ssp/ssp_server.h"
#include "util/random.h"

namespace sharoes::core {

/// The one retry budget: RetryingConnection's attempts, and (as the base
/// of ShardedChannelOptions) a cluster Call's quorum rounds. sharoes_cli's
/// --retries flags set it for either.
struct RetryOptions {
  /// Total attempts per Call, including the first; 1 disables retry.
  int max_attempts = 8;
  uint32_t initial_backoff_ms = 10;  // Doubles per retry...
  uint32_t max_backoff_ms = 1000;    // ...up to this cap.
  /// Seed for the jitter stream; 0 draws a nondeterministic seed.
  uint64_t seed = 0;
};

/// Uniform ±fraction applied to each backoff so a fleet of clients
/// hammering a recovering daemon (or re-quorumming a cluster) doesn't
/// retry in lockstep.
inline constexpr double kBackoffJitter = 0.2;

/// The one backoff of RetryingConnection and ShardedChannel's rounds:
/// sleeps `initial_ms` doubled `retry` times (0-based), capped at
/// `max_ms`, times a uniform factor in [1 - kBackoffJitter,
/// 1 + kBackoffJitter].
void SleepBackoff(uint32_t initial_ms, uint32_t max_ms, int retry, Rng* rng);

class RetryingConnection : public ssp::SspChannel {
 public:
  /// Produces a fresh channel; invoked at construction-time lazily on
  /// the first Call and again after every transport failure. A factory
  /// failure (daemon down, still restarting) is itself retried on the
  /// same backoff schedule.
  using ChannelFactory =
      std::function<Result<std::unique_ptr<ssp::SspChannel>>()>;

  RetryingConnection(ChannelFactory factory, const RetryOptions& options);

  /// The one TCP dialer: a factory that connects a ssp::TcpSspChannel to
  /// host:port under `timeouts`.
  static ChannelFactory Dialer(std::string host, uint16_t port,
                               const net::TcpTimeouts& timeouts);

  /// Executes the request, reconnecting/retrying per RetryOptions.
  /// kIoError, kDeadlineExceeded and a RespStatus::kError reply are
  /// retried; once the attempt budget is spent on them the Call returns
  /// kUnavailable carrying the last error's text, so callers never see
  /// RespStatus::kError through this channel. Any other error returns
  /// unchanged at once.
  Result<ssp::Response> Call(const ssp::Request& req) override;

  /// Observability (tests, CLI verbose output). Like the channel itself
  /// these are not thread-safe; one RetryingConnection per thread.
  uint64_t retries() const { return retries_; }
  uint64_t reconnects() const { return reconnects_; }

 private:
  static bool IsRetryable(const Status& status) {
    return status.IsIoError() || status.IsDeadlineExceeded();
  }

  ChannelFactory factory_;
  RetryOptions options_;
  Rng rng_;
  std::unique_ptr<ssp::SspChannel> channel_;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_RETRYING_CONNECTION_H_
