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
// Why retry is safe: every request in ssp/message.h is an idempotent
// put/get/delete addressed by absolute coordinates (inode, selector,
// user, group, block) — there are no appends, counters, or
// compare-and-swaps — so executing a request twice (e.g. the daemon
// applied a put but died before replying, and the retry replays it)
// leaves the store in exactly the state of executing it once. Batches
// are flat vectors of such requests and inherit the property. But the
// safety is *checked*, not assumed: a request is re-sent after it may
// have executed only when every constituent op passes
// ssp::IsIdempotentOp — mutating batches are NOT blanket-retried, they
// are replayed only as idempotent-verified sub-op sets. A future
// non-idempotent opcode therefore fails closed (its transport error
// surfaces to the caller) until it carries a request id + dedup window.
// The op-level invariant is asserted by RetryIdempotence in
// tests/core/client_fault_test.cc.
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

#include "ssp/ssp_server.h"
#include "util/random.h"

namespace sharoes::core {

/// Knobs for RetryingConnection (and the sharoes_cli flags that map onto
/// them; see ClientOptions::transport_retry). In cluster mode the same
/// knobs become ShardedChannel's round budget instead.
struct RetryOptions {
  /// Total attempts per Call, including the first; 1 disables retry.
  int max_attempts = 8;
  uint32_t initial_backoff_ms = 10;  // Doubles per retry...
  uint32_t max_backoff_ms = 1000;    // ...up to this cap.
  /// Uniform ±fraction applied to each backoff so a fleet of clients
  /// hammering a recovering daemon doesn't retry in lockstep.
  double jitter = 0.2;
  /// Seed for the jitter stream; 0 draws a nondeterministic seed.
  uint64_t seed = 0;
};

/// The one backoff of RetryingConnection and ShardedChannel's rounds:
/// sleeps `initial_ms` doubled `retry` times (0-based), capped at
/// `max_ms`, times a uniform factor in [1 - jitter, 1 + jitter].
void SleepBackoff(uint32_t initial_ms, uint32_t max_ms, double jitter,
                  int retry, Rng* rng);

class RetryingConnection : public ssp::SspChannel {
 public:
  /// Produces a fresh channel; invoked at construction-time lazily on
  /// the first Call and again after every transport failure. A factory
  /// failure (daemon down, still restarting) is itself retried on the
  /// same backoff schedule.
  using ChannelFactory =
      std::function<Result<std::unique_ptr<ssp::SspChannel>>()>;

  RetryingConnection(ChannelFactory factory, const RetryOptions& options);

  /// Executes the request, reconnecting/retrying per RetryOptions. After
  /// the attempt budget is exhausted the last transport error is
  /// returned (an exhausted kError reply becomes kIoError — callers
  /// never see RespStatus::kError through this channel). A batch made
  /// entirely of reads is also replayed when any *sub-response* is
  /// kError — replaying pure gets is side-effect free — so the batched
  /// read path never sees transient sub-op faults either. Mixed or
  /// mutating batches do not get sub-op replay: the server answers a
  /// top-level kError for durability failures, which is retried above.
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
