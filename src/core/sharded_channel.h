// ShardedChannel: client-side routing for a multi-daemon SSP cluster
// (DESIGN.md §15, §16).
//
// An SspChannel over N daemons. Every Call is split by the placement
// ring (ssp/placement.h): the sub-ops of a kBatch, or the one op of a
// plain request, are grouped by owning replica set, sent to their nodes
// as one ssp::NodeLinks exchange per round, and re-stitched in
// submission order, so SharoesClient's batching (MultiGet, the
// write-behind stage, readahead) works against a cluster unchanged. The
// fan-out happens inside one Call, so `client.rpc.round_trips` counts it
// as ONE logical round trip, which keeps the RTT gates meaningful; its
// width is `client.rpc.shard_fanout`.
//
// Replication: a write goes to all K replicas of its key and needs W
// acks; a read asks the R preferred replicas, failing over past dead
// ones, and needs R usable versioned replies. The freshest wins
// (SettleRead) and heals the other repliers (RepairStale). A kBadRequest
// from any replica is definitive; a quorum still missing after the round
// budget is a transient kError. R + W > K (ClusterConfig::Validate)
// makes every read quorum overlap every acknowledged write quorum.
//
// Retry (DESIGN.md §8): the quorum round loop is the cluster path's only
// retry layer, as RetryingConnection is a lone daemon's. A failed link
// is redialed when the next round reaches its node, and a round backs
// off only when it has unfinished work. A round costs the dials of
// nodes without a live link, the sends, and one recv_ms for all replies.
//
// What this gives: one client observes its own writes across replica
// failures (session consistency). Cross-client freshness is not decided
// here: the trust model pins integrity client-side (per-block AEAD,
// Merkle roots, the freshness map), which is why the byte store could be
// sharded without touching the security argument.
//
// Threading: like RetryingConnection, a ShardedChannel is used by one
// client thread at a time. It makes no threads: every round, admin
// fan-out and repair is one NodeLinks exchange on the calling thread.

#ifndef SHAROES_CORE_SHARDED_CHANNEL_H_
#define SHAROES_CORE_SHARDED_CHANNEL_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/retrying_connection.h"
#include "net/tcp_stream.h"
#include "obs/trace.h"
#include "ssp/placement.h"
#include "ssp/tcp_service.h"

namespace sharoes::core {

/// The cluster path's one retry budget is RetryOptions: max_attempts
/// rounds a Call may take to assemble its quorums, re-asking
/// unacked/unanswered replicas (every sub-op is idempotent) after the
/// capped doubling backoff (SleepBackoff). 1 = no retry: a round that
/// misses its quorum fails; values below 1 count as 1.
struct ShardedChannelOptions : RetryOptions {
  /// Deadlines of the per-node links (each dialed at its host:port).
  net::TcpTimeouts timeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                            /*recv_ms=*/5000};
};

class ShardedChannel : public ssp::SspChannel {
 public:
  /// Re-reads the cluster config after a kWrongShard told us ours is
  /// stale. May return an error (refresh failed: keep the old ring).
  using ConfigSource = std::function<Result<ssp::ClusterConfig>()>;

  /// The production path: load `config_path` and refresh placement by
  /// re-reading the same file.
  static Result<std::unique_ptr<ShardedChannel>> Open(
      const std::string& config_path, const ShardedChannelOptions& options);

  /// The assembled form (tests, benchmarks). `refresh` may be null: a
  /// kWrongShard then surfaces in the stitched response instead of
  /// triggering a reload.
  static Result<std::unique_ptr<ShardedChannel>> Create(
      ssp::ClusterConfig config, const ShardedChannelOptions& options,
      ConfigSource refresh = nullptr);

  Result<ssp::Response> Call(const ssp::Request& req) override;

  /// Sends `req` to the node with id `node_id` only (`sharoes_cli stats
  /// --node N`) within the round budget. Unknown ids are NotFound.
  Result<ssp::Response> CallOnNode(uint32_t node_id,
                                   const ssp::Request& req);

  // Observability for tests and verbose tools (not thread-safe, like
  // the channel itself).
  uint64_t placement_refreshes() const { return placement_refreshes_; }
  uint64_t read_repairs() const { return read_repairs_; }
  uint64_t quorum_retry_rounds() const { return quorum_retry_rounds_; }
  const ssp::NodeLinks& links() const { return links_; }

 private:
  struct SubState;

  /// What this session last quorum-acked for one object: a put's
  /// payload digest, or the fact that it deleted the object (NoteWrite).
  struct SessionMark {
    bool deleted = false;
    Bytes digest;  // SHA-256 of the acked payload; empty when deleted.
  };

  ShardedChannel(ssp::PlacementRing ring, const ShardedChannelOptions& options,
                 ConfigSource refresh);

  /// One full quorum execution of the sub-op list; returns true if any
  /// replica answered kWrongShard (the caller refreshes and re-runs).
  bool ExecuteSubOps(const std::vector<const ssp::Request*>& subs,
                     std::vector<ssp::Response>* finals);
  void SettleRead(SubState* sub);
  /// Heals the repliers ssp::RepairsFor names, in one exchange.
  void RepairStale(const SubState& sub, bool deleted, const Bytes& payload,
                   uint64_t gen);
  /// Admin ops (kGetStats / kGetTraces): ask every node and merge.
  Result<ssp::Response> CallAdmin(const ssp::Request& req);
  /// Sends `wire` to nodes `node_ids`, one exchange per round, re-asking
  /// the ones without an answer. Result i is node_ids[i]'s.
  std::vector<Result<ssp::Response>> AskNodes(
      const std::vector<uint32_t>& node_ids, const ssp::Request& wire);
  void RebuildRing(ssp::ClusterConfig config);
  /// Backs off (and counts it) before every round but the first, then
  /// stamps the round as the trace attempt.
  void BeginRound(int round, obs::RpcTraceScope* trace);

  void NoteWrite(const ssp::Request& req);

  ssp::PlacementRing ring_;
  ShardedChannelOptions options_;
  ConfigSource refresh_;
  Rng rng_;
  ssp::NodeLinks links_;
  /// Session memory quorum reads use to recognize this channel's own
  /// freshest copy — or its own delete — regardless of blob family.
  std::map<ssp::ObjectRef, SessionMark> session_marks_;
  obs::Histogram* fanout_hist_;
  uint64_t placement_refreshes_ = 0;
  uint64_t read_repairs_ = 0;
  uint64_t quorum_retry_rounds_ = 0;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_SHARDED_CHANNEL_H_
