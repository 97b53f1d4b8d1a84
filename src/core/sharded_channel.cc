#include "core/sharded_channel.h"

#include <algorithm>
#include <optional>
#include <set>
#include <thread>

#include "core/object_codec.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "obs/log.h"
#include "ssp/tcp_service.h"

namespace sharoes::core {

namespace {

using ssp::OpCode;
using ssp::Request;
using ssp::RespStatus;
using ssp::Response;

bool IsAdminOp(OpCode op) {
  return op == OpCode::kGetStats || op == OpCode::kGetTraces;
}

/// Runs fn(0) .. fn(n - 1) in parallel, one short-lived thread per index
/// (inline when n == 1). Threads adopt the caller's trace and round.
void FanOut(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 1) return fn(0);
  const obs::TraceContext trace = obs::CurrentTrace();
  std::vector<std::thread> pack;
  pack.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pack.emplace_back([&fn, trace, i] {
      obs::SetCurrentTrace(trace);
      fn(i);
    });
  }
  for (std::thread& th : pack) th.join();
}

}  // namespace

/// Per-sub-op quorum progress across rounds. Replica positions index
/// into `replicas` (preference order from the ring).
struct ShardedChannel::SubState {
  const Request* req = nullptr;
  bool mutating = false;
  std::vector<uint32_t> replicas;  // Node indices, preferred first.
  uint32_t need_acks = 1;          // W for writes.
  uint32_t need_replies = 1;       // R for reads.
  std::vector<uint8_t> acked;      // Per position: write acknowledged.
  std::vector<uint8_t> targeted;   // Per position: ever asked (reads).
  /// Reads, per position: the usable versioned reply (kOk/kNotFound/
  /// kDeleted), decoded so SettleRead compares clean object bytes and
  /// raw generations.
  std::vector<std::optional<ssp::VersionedReply>> replies;
  uint32_t replied = 0;  // Set entries in `replies`.
  uint32_t acks = 0;
  bool wrong_shard = false;
  bool done = false;
  Response final;
};

Result<std::unique_ptr<ShardedChannel>> ShardedChannel::Open(
    const std::string& config_path, const ShardedChannelOptions& options) {
  SHAROES_ASSIGN_OR_RETURN(ssp::ClusterConfig config,
                           ssp::ClusterConfig::LoadFromFile(config_path));
  NodeFactory factory = [timeouts = options.timeouts](
                            const ssp::ClusterNode& node)
      -> Result<std::unique_ptr<ssp::SspChannel>> {
    SHAROES_ASSIGN_OR_RETURN(
        auto channel,
        ssp::TcpSspChannel::Connect(node.host, node.port, timeouts));
    return std::unique_ptr<ssp::SspChannel>(std::move(channel));
  };
  ConfigSource refresh = [config_path]() {
    return ssp::ClusterConfig::LoadFromFile(config_path);
  };
  return Create(std::move(config), std::move(factory), options,
                std::move(refresh));
}

Result<std::unique_ptr<ShardedChannel>> ShardedChannel::Create(
    ssp::ClusterConfig config, NodeFactory factory,
    const ShardedChannelOptions& options, ConfigSource refresh) {
  SHAROES_ASSIGN_OR_RETURN(ssp::PlacementRing ring,
                           ssp::PlacementRing::Build(std::move(config)));
  return std::unique_ptr<ShardedChannel>(
      new ShardedChannel(std::move(ring), std::move(factory), options,
                         std::move(refresh)));
}

ShardedChannel::ShardedChannel(ssp::PlacementRing ring, NodeFactory factory,
                               const ShardedChannelOptions& options,
                               ConfigSource refresh)
    : ring_(std::move(ring)),
      factory_(std::move(factory)),
      options_(options),
      refresh_(std::move(refresh)),
      rng_(options.seed != 0 ? Rng(options.seed) : Rng()),
      fanout_hist_(
          obs::MetricsRegistry::Global().histogram("client.rpc.shard_fanout")) {
}

ShardedChannelOptions ShardedChannelOptions::FromRetry(
    const RetryOptions& retry, const net::TcpTimeouts& timeouts) {
  return {.timeouts = timeouts,
          .quorum_rounds = retry.max_attempts,
          .round_backoff_ms = retry.initial_backoff_ms,
          .max_round_backoff_ms = retry.max_backoff_ms,
          .seed = retry.seed};
}

ShardedChannel::NodeConnSlot* ShardedChannel::Slot(
    const ssp::ClusterNode& node) {
  auto [it, fresh] = conns_.try_emplace(node.id);
  if (fresh) it->second.node = node;
  return &it->second;
}

Result<Response> ShardedChannel::CallSlot(NodeConnSlot* slot,
                                          const Request& req) {
  if (slot->channel == nullptr) {
    SHAROES_ASSIGN_OR_RETURN(slot->channel, factory_(slot->node));
  }
  auto resp = slot->channel->Call(req);
  if (!resp.ok()) slot->channel.reset();  // Possibly mid-frame: redial.
  return resp;
}

void ShardedChannel::BeginRound(int round, obs::RpcTraceScope* trace) {
  if (round > 0) {
    SleepBackoff(options_.round_backoff_ms, options_.max_round_backoff_ms,
                 round - 1, &rng_);
    ++quorum_retry_rounds_;
  }
  trace->set_attempt(static_cast<uint8_t>(std::min(round, 255)));
}

std::vector<Result<Response>> ShardedChannel::AskNodes(
    const std::vector<ssp::ClusterNode>& nodes, const Request& wire) {
  std::vector<Result<Response>> results(nodes.size(),
                                        Status::IoError("not asked"));
  obs::RpcTraceScope trace_scope;
  for (int round = 0; round < std::max(1, options_.quorum_rounds); ++round) {
    std::vector<std::pair<size_t, NodeConnSlot*>> pending;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() || results[i]->status == RespStatus::kError) {
        pending.emplace_back(i, Slot(nodes[i]));
      }
    }
    if (pending.empty()) break;
    BeginRound(round, &trace_scope);
    FanOut(pending.size(), [&](size_t j) {
      results[pending[j].first] = CallSlot(pending[j].second, wire);
    });
  }
  return results;
}

Result<Response> ShardedChannel::CallOnNode(uint32_t node_id,
                                            const Request& req) {
  const ssp::ClusterNode* node = ring_.config().FindNode(node_id);
  if (node != nullptr) return AskNodes({*node}, req)[0];
  return Status::NotFound("no cluster node with id " +
                          std::to_string(node_id));
}

void ShardedChannel::RebuildRing(ssp::ClusterConfig config) {
  auto rebuilt = ssp::PlacementRing::Build(std::move(config));
  if (!rebuilt.ok()) {
    obs::Log(obs::Severity::kWarn, "client.shard.refresh_rejected",
             {{"detail", rebuilt.status().ToString()}});
    return;
  }
  ring_ = std::move(*rebuilt);
  // Keep live sockets only for node ids that survived the refresh AT
  // THEIR OLD ENDPOINT. A connection whose node id moved to a new
  // host:port must go too: its slot still dials the old address, so
  // keeping it would mean reconnect-looping against a dead endpoint
  // (and leaking one stale fd per refresh) forever.
  for (auto it = conns_.begin(); it != conns_.end();) {
    const ssp::ClusterNode* node = ring_.config().FindNode(it->first);
    if (node == nullptr || node->host != it->second.node.host ||
        node->port != it->second.node.port) {
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardedChannel::NoteWrite(const Request& req) {
  switch (ssp::VerbOf(req.op)) {
    case ssp::OpVerb::kPut:
      session_marks_[*ssp::RefOf(req)] = {false,
                                          crypto::Sha256Digest(req.payload)};
      return;
    case ssp::OpVerb::kDelete:
      // Flip to a deleted mark, never erase: erasing would let a stale
      // live reply match the pre-delete digest on a later read and win
      // the settle — this session resurrecting its own delete.
      session_marks_[*ssp::RefOf(req)] = {true, {}};
      return;
    case ssp::OpVerb::kDeleteInode: {
      // Range: every mark of the inode's family flips to deleted.
      const ssp::ObjectFamily family = ssp::FamilyOf(req.op);
      auto it = session_marks_.lower_bound({family, req.inode, 0});
      auto end = session_marks_.upper_bound({family, req.inode, ~0ull});
      for (; it != end; ++it) it->second = {true, {}};
      return;
    }
    default:
      return;
  }
}

Result<Response> ShardedChannel::Call(const Request& req) {
  // Admin ops have no routing key: fan them out to every configured
  // node and merge, so `sharoes_cli stats` against a cluster reports
  // the fleet, not whichever daemon happens to be listed first. Tools
  // that want one specific daemon use CallOnNode.
  if (IsAdminOp(req.op)) return CallAdmin(req);

  const bool is_batch = req.op == OpCode::kBatch;
  std::vector<const Request*> subs;
  if (is_batch) {
    subs.reserve(req.batch.size());
    for (const Request& sub : req.batch) subs.push_back(&sub);
  } else {
    subs.push_back(&req);
  }
  if (subs.empty()) return Response::Ok();

  std::vector<Response> finals;
  for (int attempt = 0; attempt < 2; ++attempt) {
    finals.clear();
    bool wrong_shard = ExecuteSubOps(subs, &finals);
    if (wrong_shard && refresh_ != nullptr && attempt == 0) {
      // Some daemon refused a routing key: our ring is stale. Refresh
      // placement and retry the whole sub-op set exactly once — every
      // sub-op is idempotent, so re-running acked ones is safe, and a
      // second kWrongShard means daemons and config genuinely disagree,
      // which must surface instead of looping.
      ++placement_refreshes_;
      auto fresh = refresh_();
      if (fresh.ok()) RebuildRing(std::move(*fresh));
      continue;
    }
    break;
  }
  if (!is_batch) return finals.at(0);
  Response top;
  top.status = RespStatus::kOk;
  top.batch = std::move(finals);
  return top;
}

Result<Response> ShardedChannel::CallAdmin(const Request& req) {
  const ssp::ClusterConfig& config = ring_.config();
  const size_t n = config.nodes.size();
  Request wire = req;
  // Stats merge needs the binary mergeable snapshot form; each daemon
  // still applies the payload's prefix filter itself.
  if (req.op == OpCode::kGetStats) wire.binary_stats = true;

  std::vector<Result<Response>> results = AskNodes(config.nodes, wire);
  fanout_hist_->Record(n);

  if (req.op == OpCode::kGetStats) {
    // Fold the per-daemon snapshots into one fleet view and render the
    // same JSON document a single daemon would have returned (counters
    // and gauges sum, histograms merge pointwise — so the percentiles
    // are computed over the union of all samples, not averaged).
    obs::RegistrySnapshot merged;
    uint64_t reporting = 0;
    for (size_t i = 0; i < n; ++i) {
      const auto& r = results[i];
      if (!r.ok() || r->status != RespStatus::kOk) continue;
      auto snap = obs::RegistrySnapshot::DeserializeBinary(r->payload);
      if (!snap.ok()) {
        obs::Log(obs::Severity::kWarn, "client.shard.stats_undecodable",
                 {{"node", config.nodes[i].id},
                  {"detail", snap.status().ToString()}});
        continue;
      }
      merged.Merge(*snap);
      ++reporting;
    }
    if (reporting == 0) {
      return Status::Unavailable("no cluster node answered kGetStats");
    }
    // How much of the fleet this document covers — a partial merge must
    // be visible, not silently presented as the whole cluster.
    merged.gauges["cluster.nodes_reporting"] = reporting;
    merged.gauges["cluster.nodes_total"] = n;
    return Response::Ok(ToBytes(merged.ToJson()));
  }

  // kGetTraces: span timelines are per-daemon documents with no
  // meaningful cross-node merge, so return one object keyed by node id
  // with each daemon's document embedded verbatim.
  obs::JsonObjectWriter w;
  uint64_t reporting = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& r = results[i];
    if (!r.ok() || r->status != RespStatus::kOk) continue;
    std::string doc(r->payload.begin(), r->payload.end());
    w.RawField("node_" + std::to_string(config.nodes[i].id), doc);
    ++reporting;
  }
  if (reporting == 0) {
    return Status::Unavailable("no cluster node answered kGetTraces");
  }
  return Response::Ok(ToBytes(w.Take()));
}

bool ShardedChannel::ExecuteSubOps(const std::vector<const Request*>& subs,
                                   std::vector<ssp::Response>* finals) {
  const ssp::ClusterConfig& config = ring_.config();
  std::vector<SubState> states(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    SubState& s = states[i];
    s.req = subs[i];
    s.mutating = ssp::IsMutatingOp(s.req->op);
    s.replicas = ring_.ReplicaIndicesFor(ssp::RoutingKeyOf(*s.req));
    const uint32_t k = static_cast<uint32_t>(s.replicas.size());
    s.need_acks = std::min(config.write_quorum, k);
    s.need_replies = std::min(config.read_quorum, k);
    s.acked.assign(k, 0);
    s.targeted.assign(k, 0);
    s.replies.resize(k);
  }

  // One node's work for one round: the sub-ops (in submission order)
  // plus each one's replica position, shipped as a single request.
  struct NodeTask {
    uint32_t node = 0;
    NodeConnSlot* slot = nullptr;
    std::vector<std::pair<size_t, uint32_t>> items;  // (sub idx, position).
    Request wire;
    bool wrapped = false;
    std::optional<Result<Response>> result;
  };

  std::set<uint32_t> fanout_nodes;
  bool any_wrong_shard = false;
  obs::RpcTraceScope trace_scope;
  for (int round = 0; round < std::max(1, options_.quorum_rounds); ++round) {
    // Plan the round for the unfinished subs. Writes: every replica that
    // has not acked the sub yet, so each node receives the sub-ops it
    // is missing in submission order. Reads: enough untried replicas to
    // complete the R quorum, preferring the ring order and failing
    // over to further replicas only when earlier ones went unusable.
    std::vector<NodeTask> tasks;
    auto task_for = [&](uint32_t node) -> NodeTask& {
      for (NodeTask& t : tasks) {
        if (t.node == node) return t;
      }
      tasks.push_back(NodeTask{});
      tasks.back().node = node;
      return tasks.back();
    };
    for (size_t i = 0; i < states.size(); ++i) {
      SubState& s = states[i];
      if (s.done) continue;
      if (s.mutating) {
        for (uint32_t pos = 0; pos < s.replicas.size(); ++pos) {
          if (!s.acked[pos]) {
            task_for(s.replicas[pos]).items.emplace_back(i, pos);
          }
        }
      } else {
        uint32_t want = s.need_replies - s.replied;
        // Untried replicas first (ring preference order), then re-asks
        // of replicas that failed earlier rounds (they may be back).
        for (int pass = 0; pass < 2 && want > 0; ++pass) {
          for (uint32_t pos = 0; pos < s.replicas.size() && want > 0;
               ++pos) {
            if (s.replies[pos].has_value()) continue;
            const bool untried = !s.targeted[pos];
            if ((pass == 0) != untried) continue;
            if (untried && pos >= s.need_replies) ++read_failovers_;
            s.targeted[pos] = 1;
            task_for(s.replicas[pos]).items.emplace_back(i, pos);
            --want;
          }
        }
      }
    }
    // Every unfinished sub plans at least one replica, so an empty plan
    // means every sub is settled: stop before backing off.
    if (tasks.empty()) break;
    BeginRound(round, &trace_scope);

    // Materialize wires + connections on this thread, then fan out.
    for (NodeTask& t : tasks) {
      t.slot = Slot(config.nodes[t.node]);
      fanout_nodes.insert(t.node);
      if (t.items.size() == 1) {
        t.wire = *states[t.items[0].first].req;
      } else {
        std::vector<Request> batch;
        batch.reserve(t.items.size());
        for (auto& [sub_idx, pos] : t.items) {
          (void)pos;
          batch.push_back(*states[sub_idx].req);
        }
        t.wire = Request::Batch(std::move(batch));
        t.wrapped = true;
      }
      // Every cluster read is versioned: replies carry their replica's
      // store generation and tombstones answer kDeleted, the raw
      // material of delete-aware freshness. The flag rides the
      // top-level frame (a batch envelope's flag covers its sub-reads)
      // and is a no-op for mutating ops.
      t.wire.want_version = true;
    }
    FanOut(tasks.size(), [this, &tasks](size_t i) {
      tasks[i].result = CallSlot(tasks[i].slot, tasks[i].wire);
    });

    // Absorb replies.
    for (NodeTask& t : tasks) {
      const Result<Response>& result = *t.result;
      for (size_t item = 0; item < t.items.size(); ++item) {
        auto [sub_idx, pos] = t.items[item];
        SubState& s = states[sub_idx];
        if (s.done) continue;
        RespStatus status;
        const Response* sub_resp = nullptr;
        if (!result.ok()) {
          continue;  // Transport failure: no ack, no reply.
        } else if (t.wrapped) {
          if (result->status != RespStatus::kOk ||
              result->batch.size() != t.items.size()) {
            // Envelope-level kError (e.g. WAL ack failure) or a
            // malformed stitch: nothing in this frame counts.
            continue;
          }
          sub_resp = &result->batch[item];
          status = sub_resp->status;
        } else {
          sub_resp = &*result;
          status = sub_resp->status;
        }
        if (status == RespStatus::kWrongShard) {
          s.wrong_shard = true;
          any_wrong_shard = true;
          continue;
        }
        if (status == RespStatus::kBadRequest) {
          s.final = Response::BadRequest();
          s.done = true;
          continue;
        }
        if (s.mutating) {
          if (status == RespStatus::kOk || status == RespStatus::kNotFound) {
            if (!s.acked[pos]) {
              s.acked[pos] = 1;
              ++s.acks;
            }
          }
        } else if (!s.replies[pos].has_value()) {
          s.replies[pos] = ssp::DecodeVersioned(*sub_resp);
          if (s.replies[pos].has_value()) ++s.replied;
        }
      }
    }

    // Settle quorums.
    for (SubState& s : states) {
      if (s.done) continue;
      if (s.mutating) {
        if (s.acks >= s.need_acks) {
          s.final = Response::Ok();
          s.done = true;
        }
      } else if (s.replied >= s.need_replies) {
        SettleRead(&s);
      }
    }
    if (any_wrong_shard && refresh_ != nullptr) break;  // Refresh first.
  }

  // Session fingerprints, in submission order so the newest write to a
  // key is what later quorum reads recognize as freshest.
  for (const SubState& s : states) {
    if (s.mutating && s.done && s.final.status == RespStatus::kOk) {
      NoteWrite(*s.req);
    }
  }

  fanout_hist_->Record(fanout_nodes.size());
  finals->reserve(states.size());
  for (SubState& s : states) {
    if (!s.done) {
      // Quorum not assembled inside the round budget: transient by
      // construction (every definitive verdict settles a sub), so the
      // reply layers above already handle — kError — fits exactly.
      s.final = s.wrong_shard ? Response::WrongShard() : Response::Error();
    }
    finals->push_back(std::move(s.final));
  }
  return any_wrong_shard;
}

void ShardedChannel::SettleRead(SubState* sub) {
  // Positions are preference order.
  std::vector<const ssp::VersionedReply*> oks;
  for (const auto& r : sub->replies) {
    if (r.has_value() && r->status == RespStatus::kOk) oks.push_back(&*r);
  }
  // 0. Generation-first freshness (ssp::SettleFreshest; DESIGN.md §16:
  //    with quorum writes the highest generation among R >= K-W+1
  //    replies is the freshest acknowledged state, and a tombstone wins
  //    ties — the R=K scrub heals a wrong suppression from the replica
  //    holding the strictly higher generation).
  const ssp::Freshest fresh = ssp::SettleFreshest(sub->replies);
  if (fresh.deleted) {
    // The freshest acknowledged state of this key is "deleted". Answer
    // absence and propagate the tombstone onto live stale repliers —
    // never onto kNotFound ones (missing already agrees with deleted;
    // re-creating the tombstone there would fight the scrubber's GC).
    sub->final = Response::NotFound();
    sub->done = true;
    RepairStale(*sub, /*deleted=*/true, Bytes{}, fresh.gen);
    return;
  }
  if (oks.empty()) {
    // Unanimous absence (kNotFound, possibly with lower-gen tombstones
    // that just lost to nothing live — still absence).
    sub->final = Response::NotFound();
    sub->done = true;
    return;
  }
  const ssp::VersionedReply* winner = nullptr;
  // Read repair re-puts the winner over the losers, so a wrong winner
  // does not just return stale bytes — it DESTROYS the fresh copies.
  // Only verdicts with real freshness evidence may repair; a mere
  // preference-order tiebreak never does.
  bool strong_winner = false;
  // A live reply at the strictly highest generation — or several that
  // agree byte-for-byte — IS the freshest acknowledged copy. Ambiguous
  // ties (same generation, different bytes: diverged replicas that
  // each missed a different op) fall through to the evidence chain
  // below.
  if (fresh.live.has_value()) {
    winner = &*sub->replies[*fresh.live];
    strong_winner = true;
  }
  // 1. This channel's own quorum-acked write wins outright. A deleted
  //    session mark never matches anything here (its digest is empty
  //    on purpose), so a stale live copy of a key this session deleted
  //    cannot ride the fingerprint path back to life.
  if (winner == nullptr) {
    auto mark = session_marks_.find(*ssp::RefOf(*sub->req));
    if (mark != session_marks_.end() && !mark->second.deleted) {
      for (const auto* u : oks) {
        if (crypto::Sha256Digest(u->payload) == mark->second.digest) {
          winner = u;
          strong_winner = true;
          break;
        }
      }
    }
  }
  // 2. Data blocks carry a plaintext-peekable write generation in their
  //    AEAD header: highest generation wins. PeekDataHeader alone
  //    "parses" any 12 bytes, so the gen is only evidence when EVERY
  //    candidate structurally parses as a codec data block (header plus
  //    AEAD tag framing) — one raw blob in the set and the comparison
  //    would be garbage against garbage, promoting whatever noise
  //    decodes largest. Mixed or raw payloads fall through to majority.
  if (winner == nullptr && sub->req->op == OpCode::kGetData) {
    bool all_codec = true;
    for (const auto* u : oks) {
      if (!ObjectCodec::PeekDataHeader(u->payload).ok() ||
          !ObjectCodec::PeekDataTag(u->payload).ok()) {
        all_codec = false;
        break;
      }
    }
    if (all_codec) {
      uint64_t best_gen = 0;
      for (const auto* u : oks) {
        uint64_t gen = ObjectCodec::PeekDataHeader(u->payload)->write_gen;
        if (winner == nullptr || gen > best_gen) {
          winner = u;
          best_gen = gen;
        }
      }
      strong_winner = true;
    }
  }
  // 3. Majority payload, ring preference breaking ties — replicas only
  //    diverge here for objects some replica missed while down, and the
  //    client-side integrity layer (AEAD, Merkle root, freshness map)
  //    still rejects anything stale-and-harmful that slips through.
  //    Only a STRICT majority is freshness evidence (with W > K/2 two
  //    identical copies cannot both predate an acked write); a tie is
  //    answered by ring preference but never repaired from.
  if (winner == nullptr) {
    size_t best_votes = 0;
    for (const auto* u : oks) {
      size_t votes = 0;
      for (const auto* v : oks) {
        if (v->payload == u->payload) ++votes;
      }
      if (votes > best_votes) {
        best_votes = votes;
        winner = u;
      }
    }
    strong_winner = best_votes * 2 > oks.size();
  }
  sub->final = Response::Ok(winner->payload);
  sub->done = true;
  if (strong_winner) {
    RepairStale(*sub, /*deleted=*/false, winner->payload, winner->gen);
  }
}

void ShardedChannel::RepairStale(const SubState& sub, bool deleted,
                                 const Bytes& payload, uint64_t gen) {
  const ssp::ObjectRef ref = *ssp::RefOf(*sub.req);
  for (size_t pos = 0; pos < sub.replies.size(); ++pos) {
    const auto& u = sub.replies[pos];
    if (!u.has_value()) continue;
    if (deleted) {
      // Only live stale repliers get the tombstone. kNotFound already
      // agrees with deleted; kDeleted repliers (any generation) are
      // already dead.
      if (u->status != RespStatus::kOk) continue;
    } else {
      if (u->status == RespStatus::kOk && u->payload == payload) continue;
    }
    // Re-put the winning payload — or re-delete, when a tombstone won —
    // stamped with the winner's generation so the receiving store
    // applies the repair at that version and gen-gating guarantees
    // nothing fresher is ever clobbered (idempotent either way).
    // Best-effort: a failed repair just leaves the divergence for the
    // next read or the anti-entropy scrubber to heal.
    Request fix = deleted ? Request::Delete(ref) : Request::Put(ref, payload);
    if (gen != 0) {
      fix.has_store_gen = true;
      fix.store_gen = gen;
    }
    const ssp::ClusterNode& node = ring_.config().nodes[sub.replicas[pos]];
    auto repaired = CallSlot(Slot(node), fix);
    ++read_repairs_;
    if (!repaired.ok() || (repaired->status != RespStatus::kOk &&
                           repaired->status != RespStatus::kNotFound)) {
      obs::Log(obs::Severity::kWarn, "client.shard.repair_failed",
               {{"op", ssp::OpCodeName(sub.req->op)},
                {"inode", sub.req->inode}});
    }
  }
}

}  // namespace sharoes::core
