// ShardedChannel: client-side routing for a multi-daemon SSP cluster.
//
// An SspChannel over N daemons instead of one. Every Call is split by
// the placement ring (ssp/placement.h): sub-ops of a kBatch — and the
// single op of a plain request — are grouped by owning replica set,
// issued in parallel over one plain connection per node, and the
// per-sub-op responses are re-stitched in submission order, so
// SharoesClient's whole batching machinery (MultiGet, the write-behind
// stage, readahead) works against a cluster unchanged. Because the
// fan-out happens inside one Call, the client's one-Call-one-round-trip
// accounting (`client.rpc.round_trips`) naturally counts a parallel
// per-shard fan-out as ONE logical round trip — max-per-shard, not the
// sum — which keeps the PR-5/PR-6 RTT gates meaningful; the fan-out
// width itself is observable as `client.rpc.shard_fanout`.
//
// Replication (DESIGN.md §15, §16): a write goes to all K replicas of
// its key and needs W acks; a read asks the R preferred replicas,
// failing over past dead ones, and needs R usable versioned replies,
// of which the freshest wins (SettleRead) and heals stale or deleted
// copies on the other repliers (RepairStale). A kBadRequest from any
// replica is definitive; a quorum still missing after the round budget
// is a transient kError (the layers above treat it as retry-me). With
// R + W > K (enforced by ClusterConfig::Validate) every read quorum
// overlaps every acknowledged write quorum, so the freshest acked copy
// is always among the R replies.
//
// Retry (DESIGN.md §8): the quorum round loop is the cluster path's
// only retry layer, as RetryingConnection is a lone daemon's. A node's
// plain connection is dropped on a transport failure and redialed when
// the next round reaches it, so a Call waits at most
//   quorum_rounds × (connect_ms + send_ms + recv_ms) + Σ backoff,
// backing off only before a round that has unfinished work.
//
// What this gives — and honestly does not give: one client observes
// its own writes across replica failures (session consistency, enough
// for the cluster failover suite to demand byte-identical Andrew
// results through a SIGKILLed replica). Cross-client freshness is NOT
// decided here; it never was the transport's job. The Sharoes trust
// model pins integrity client-side — per-block AEAD, Merkle roots, the
// client freshness map that fails a rolled-back write_gen closed as
// Corruption — which is exactly why the byte store could be sharded
// without touching the security argument.
//
// Threading: like RetryingConnection, a ShardedChannel is used by one
// client thread at a time; internally each round spawns one short-lived
// thread per contacted node (the per-node connections are touched only
// by their node's thread within a round).

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

namespace sharoes::core {

struct ShardedChannelOptions {
  /// Stream deadlines for the TCP factories Open() builds.
  net::TcpTimeouts timeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                            /*recv_ms=*/5000};
  /// The cluster path's one retry budget: rounds a Call may take to
  /// assemble its quorums, re-asking unacked/unanswered replicas (every
  /// sub-op is idempotent) after a capped doubling backoff, ±20%
  /// jittered. 1 = no retry: a round that misses its quorum fails.
  int quorum_rounds = 6;
  uint32_t round_backoff_ms = 20;
  uint32_t max_round_backoff_ms = 500;
  /// Jitter seed for round backoff; 0 draws nondeterministically.
  uint64_t seed = 0;

  /// A transport retry budget as rounds (ClientOptions::transport_retry
  /// and sharoes_cli's --retries flags in cluster mode).
  static ShardedChannelOptions FromRetry(const RetryOptions& retry,
                                         const net::TcpTimeouts& timeouts);
};

class ShardedChannel : public ssp::SspChannel {
 public:
  /// Dials one cluster node (tests: RestartableDaemons; Open(): TCP).
  /// Fan-out threads call it concurrently, each for its own node.
  using NodeFactory = std::function<Result<std::unique_ptr<ssp::SspChannel>>(
      const ssp::ClusterNode&)>;
  /// Re-reads the cluster config after a kWrongShard told us ours is
  /// stale. May return an error (refresh failed: keep the old ring).
  using ConfigSource = std::function<Result<ssp::ClusterConfig>()>;

  /// The production path: load `config_path`, connect over TCP, and
  /// refresh placement by re-reading the same file.
  static Result<std::unique_ptr<ShardedChannel>> Open(
      const std::string& config_path, const ShardedChannelOptions& options);

  /// The assembled form (tests, benchmarks). `refresh` may be null: a
  /// kWrongShard then surfaces in the stitched response instead of
  /// triggering a reload.
  static Result<std::unique_ptr<ShardedChannel>> Create(
      ssp::ClusterConfig config, NodeFactory factory,
      const ShardedChannelOptions& options, ConfigSource refresh = nullptr);

  Result<ssp::Response> Call(const ssp::Request& req) override;

  /// Sends `req` to exactly the node with id `node_id` (admin tools
  /// inspecting one daemon: `sharoes_cli stats --node N`), redialing
  /// within the round budget. Unknown ids are NotFound. No placement
  /// routing, no quorum.
  Result<ssp::Response> CallOnNode(uint32_t node_id,
                                   const ssp::Request& req);

  const ssp::ClusterConfig& config() const { return ring_.config(); }

  // Observability for tests and verbose tools (not thread-safe, like
  // the channel itself).
  uint64_t placement_refreshes() const { return placement_refreshes_; }
  uint64_t read_failovers() const { return read_failovers_; }
  uint64_t read_repairs() const { return read_repairs_; }
  uint64_t quorum_retry_rounds() const { return quorum_retry_rounds_; }

 private:
  struct SubState;

  /// What this session last quorum-acked for one object: a put's
  /// payload digest, or the fact that it deleted the object. A delete
  /// flips the mark instead of erasing it — an erased entry would let a
  /// later stale live reply match the *pre-delete* digest and win, the
  /// exact resurrection this PR kills.
  struct SessionMark {
    bool deleted = false;
    Bytes digest;  // SHA-256 of the acked payload; empty when deleted.
  };

  /// One node's connection plus the endpoint it is dialed at. A
  /// placement refresh that moves a node id to a new address must drop
  /// the slot or it redials the dead endpoint forever. `channel` is
  /// null until dialed.
  struct NodeConnSlot {
    ssp::ClusterNode node;
    std::unique_ptr<ssp::SspChannel> channel;
  };

  ShardedChannel(ssp::PlacementRing ring, NodeFactory factory,
                 const ShardedChannelOptions& options, ConfigSource refresh);

  /// One full quorum execution of the sub-op list; returns true if any
  /// replica answered kWrongShard (the caller refreshes and re-runs).
  bool ExecuteSubOps(const std::vector<const ssp::Request*>& subs,
                     std::vector<ssp::Response>* finals);
  void SettleRead(SubState* sub);
  /// Heals divergent repliers toward the settled winner. A live winner
  /// (`deleted` false) is re-put everywhere it is stale or missing; a
  /// tombstone winner is re-deleted onto LIVE repliers only. Both are
  /// stamped with `gen` so the receiving store gen-gates the repair.
  void RepairStale(const SubState& sub, bool deleted, const Bytes& payload,
                   uint64_t gen);
  /// Admin ops (kGetStats / kGetTraces): fan out to every configured
  /// node and merge — stats via the binary mergeable snapshot form,
  /// traces as one JSON object keyed by node id.
  Result<ssp::Response> CallAdmin(const ssp::Request& req);
  /// Sends `wire` to `nodes` in parallel, re-asking each round the ones
  /// without an answer. Result i is nodes[i]'s.
  std::vector<Result<ssp::Response>> AskNodes(
      const std::vector<ssp::ClusterNode>& nodes, const ssp::Request& wire);
  /// `node`'s slot, created on first use (caller's thread only).
  NodeConnSlot* Slot(const ssp::ClusterNode& node);
  /// Dials if needed, sends, and drops the connection on a transport
  /// failure. Touches only `slot`, so fan-out threads may call it.
  Result<ssp::Response> CallSlot(NodeConnSlot* slot, const ssp::Request& req);
  void RebuildRing(ssp::ClusterConfig config);
  /// Backs off (and counts it) before every round but the first, then
  /// stamps the round as the trace attempt.
  void BeginRound(int round, obs::RpcTraceScope* trace);

  void NoteWrite(const ssp::Request& req);

  ssp::PlacementRing ring_;
  NodeFactory factory_;
  ShardedChannelOptions options_;
  ConfigSource refresh_;
  Rng rng_;
  /// Per-node connections, keyed by node id so a refresh that reorders
  /// the config keeps live sockets (and drops ones whose node moved to
  /// a different endpoint — see NodeConnSlot).
  std::map<uint32_t, NodeConnSlot> conns_;
  /// Session memory quorum reads use to recognize this channel's own
  /// freshest copy — or its own delete — regardless of blob family.
  std::map<ssp::ObjectRef, SessionMark> session_marks_;
  obs::Histogram* fanout_hist_;
  uint64_t placement_refreshes_ = 0;
  uint64_t read_failovers_ = 0;
  uint64_t read_repairs_ = 0;
  uint64_t quorum_retry_rounds_ = 0;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_SHARDED_CHANNEL_H_
