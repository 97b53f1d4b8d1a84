#include "core/sharded_channel.h"

#include <algorithm>
#include <optional>
#include <set>

#include "core/object_codec.h"
#include "crypto/sha256.h"
#include "obs/json.h"
#include "obs/log.h"

namespace sharoes::core {

using ssp::OpCode;
using ssp::Request;
using ssp::RespStatus;
using ssp::Response;

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
  ConfigSource refresh = [config_path]() {
    return ssp::ClusterConfig::LoadFromFile(config_path);
  };
  return Create(std::move(config), options, std::move(refresh));
}

Result<std::unique_ptr<ShardedChannel>> ShardedChannel::Create(
    ssp::ClusterConfig config, const ShardedChannelOptions& options,
    ConfigSource refresh) {
  SHAROES_ASSIGN_OR_RETURN(ssp::PlacementRing ring,
                           ssp::PlacementRing::Build(std::move(config)));
  return std::unique_ptr<ShardedChannel>(
      new ShardedChannel(std::move(ring), options, std::move(refresh)));
}

ShardedChannel::ShardedChannel(ssp::PlacementRing ring,
                               const ShardedChannelOptions& options,
                               ConfigSource refresh)
    : ring_(std::move(ring)),
      options_(options),
      refresh_(std::move(refresh)),
      rng_(options.seed != 0 ? Rng(options.seed) : Rng()),
      links_(ring_.config().nodes, options.timeouts),
      fanout_hist_(
          obs::MetricsRegistry::Global().histogram("client.rpc.shard_fanout")) {
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

void ShardedChannel::BeginRound(int round, obs::RpcTraceScope* trace) {
  if (round > 0) {
    SleepBackoff(options_.initial_backoff_ms, options_.max_backoff_ms,
                 round - 1, &rng_);
    ++quorum_retry_rounds_;
  }
  trace->set_attempt(static_cast<uint8_t>(std::min(round, 255)));
}

std::vector<Result<Response>> ShardedChannel::AskNodes(
    const std::vector<uint32_t>& node_ids, const Request& wire) {
  std::vector<Result<Response>> results(node_ids.size(),
                                        Status::IoError("not asked"));
  obs::RpcTraceScope trace_scope;
  for (int round = 0; round < options_.max_attempts; ++round) {
    std::vector<size_t> pending;
    std::vector<ssp::NodeLinks::Ask> asks;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].ok() || results[i]->status == RespStatus::kError) {
        pending.push_back(i);
        asks.push_back({node_ids[i], &wire});
      }
    }
    if (pending.empty()) break;
    BeginRound(round, &trace_scope);
    std::vector<Result<Response>> answers = links_.Exchange(asks);
    for (size_t j = 0; j < pending.size(); ++j) {
      results[pending[j]] = std::move(answers[j]);
    }
  }
  return results;
}

Result<Response> ShardedChannel::CallOnNode(uint32_t node_id,
                                            const Request& req) {
  if (ring_.config().FindNode(node_id) != nullptr) {
    return AskNodes({node_id}, req)[0];
  }
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
  // Keeps live sockets only for node ids that survived the refresh at
  // their old endpoint.
  links_.SetNodes(ring_.config().nodes);
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
      // Range: every mark of the inode's family flips to deleted, and a
      // metadata delete takes the inode's split blocks too (ApplyWalOp).
      std::vector<ssp::ObjectFamily> families = {ssp::FamilyOf(req.op)};
      if (req.op == OpCode::kDeleteInodeMetadata) {
        families.push_back(ssp::ObjectFamily::kUserMetadata);
      }
      for (ssp::ObjectFamily family : families) {
        auto it = session_marks_.lower_bound({family, req.inode, 0});
        auto end = session_marks_.upper_bound({family, req.inode, ~0ull});
        for (; it != end; ++it) it->second = {true, {}};
      }
      return;
    }
    default:
      return;
  }
}

Result<Response> ShardedChannel::Call(const Request& req) {
  // Admin ops have no routing key: ask every configured node and merge,
  // so `sharoes_cli stats` against a cluster reports the fleet.
  if (ssp::VerbOf(req.op) == ssp::OpVerb::kAdmin) return CallAdmin(req);

  const bool is_batch = req.op == OpCode::kBatch;
  std::vector<const Request*> subs = {&req};
  if (is_batch) {
    subs.clear();
    for (const Request& sub : req.batch) subs.push_back(&sub);
  }
  if (subs.empty()) return Response::Ok();

  std::vector<Response> finals;
  if (ExecuteSubOps(subs, &finals) && refresh_ != nullptr) {
    // Some daemon refused a routing key: our ring is stale. Refresh
    // placement and retry the whole sub-op set exactly once — every
    // sub-op is idempotent, so re-running acked ones is safe, and a
    // second kWrongShard means daemons and config genuinely disagree,
    // which must surface instead of looping.
    ++placement_refreshes_;
    auto fresh = refresh_();
    if (fresh.ok()) RebuildRing(std::move(*fresh));
    finals.clear();
    ExecuteSubOps(subs, &finals);
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
  std::vector<uint32_t> node_ids;
  for (const ssp::ClusterNode& node : config.nodes) node_ids.push_back(node.id);
  // Each daemon applies the payload's prefix filter itself.
  std::vector<Result<Response>> results = AskNodes(node_ids, req);
  fanout_hist_->Record(n);

  // kGetStats folds the per-daemon binary snapshots into one fleet
  // snapshot in the same form a single daemon returns (counters and
  // gauges sum, histograms merge pointwise, so the percentiles are
  // computed over the union of all samples). kGetTraces:
  // span timelines are per-daemon documents with no meaningful
  // cross-node merge, so it returns one object keyed by node id with
  // each daemon's document embedded verbatim.
  obs::RegistrySnapshot merged;
  obs::JsonObjectWriter traces;
  uint64_t reporting = 0;
  for (size_t i = 0; i < n; ++i) {
    const auto& r = results[i];
    if (!r.ok() || r->status != RespStatus::kOk) continue;
    if (req.op == OpCode::kGetTraces) {
      traces.RawField("node_" + std::to_string(config.nodes[i].id),
                      std::string(r->payload.begin(), r->payload.end()));
      ++reporting;
      continue;
    }
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
    return Status::Unavailable(std::string("no cluster node answered ") +
                               ssp::OpCodeName(req.op));
  }
  if (req.op == OpCode::kGetTraces) {
    return Response::Ok(ToBytes(traces.Take()));
  }
  // How much of the fleet this document covers: a partial merge must be
  // visible, not silently presented as the whole cluster.
  merged.gauges["cluster.nodes_reporting"] = reporting;
  merged.gauges["cluster.nodes_total"] = n;
  return Response::Ok(merged.SerializeBinary());
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
    std::vector<std::pair<size_t, uint32_t>> items;  // (sub idx, position).
    Request wire;
    bool wrapped = false;
  };

  std::set<uint32_t> fanout_nodes;
  bool any_wrong_shard = false;
  obs::RpcTraceScope trace_scope;
  for (int round = 0; round < options_.max_attempts; ++round) {
    // Plan the round for the unfinished subs. Writes: every replica that
    // has not acked the sub yet, so each node receives the sub-ops it
    // is missing in submission order. Reads: enough untried replicas to
    // complete the R quorum, preferring the ring order and failing
    // over to further replicas only when earlier ones went unusable.
    std::map<uint32_t, NodeTask> tasks;  // By node index.
    for (size_t i = 0; i < states.size(); ++i) {
      SubState& s = states[i];
      if (s.done) continue;
      if (s.mutating) {
        for (uint32_t pos = 0; pos < s.replicas.size(); ++pos) {
          if (!s.acked[pos]) {
            tasks[s.replicas[pos]].items.emplace_back(i, pos);
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
            s.targeted[pos] = 1;
            tasks[s.replicas[pos]].items.emplace_back(i, pos);
            --want;
          }
        }
      }
    }
    // Every unfinished sub plans at least one replica, so an empty plan
    // means every sub is settled: stop before backing off.
    if (tasks.empty()) break;
    BeginRound(round, &trace_scope);

    // Materialize the wires, then exchange them with every node at once.
    std::vector<ssp::NodeLinks::Ask> asks;
    for (auto& [node, t] : tasks) {
      fanout_nodes.insert(node);
      t.wrapped = t.items.size() > 1;
      std::vector<Request> batch;
      for (const auto& item : t.items) batch.push_back(*states[item.first].req);
      t.wire = t.wrapped ? Request::Batch(std::move(batch))
                         : std::move(batch[0]);
      // Every cluster read is versioned (replies carry the replica's
      // store generation; tombstones answer kDeleted). The flag rides the
      // top-level frame, covers a batch's sub-reads, and is a no-op for
      // mutating ops.
      t.wire.want_version = true;
      asks.push_back({config.nodes[node].id, &t.wire});
    }
    const std::vector<Result<Response>> results = links_.Exchange(asks);

    // Absorb replies.
    auto result_it = results.begin();
    for (const auto& [node, t] : tasks) {
      const Result<Response>& result = *result_it++;
      for (size_t item = 0; item < t.items.size(); ++item) {
        auto [sub_idx, pos] = t.items[item];
        SubState& s = states[sub_idx];
        if (s.done) continue;
        if (!result.ok()) continue;  // Transport failure: no ack, no reply.
        // Envelope-level kError (e.g. WAL ack failure) or a malformed
        // stitch: nothing in this frame counts.
        if (t.wrapped && (result->status != RespStatus::kOk ||
                          result->batch.size() != t.items.size())) {
          continue;
        }
        const Response& sub_resp = t.wrapped ? result->batch[item] : *result;
        const RespStatus status = sub_resp.status;
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
          s.replies[pos] = ssp::DecodeVersioned(sub_resp);
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
  sub->done = true;
  // Deleted, or unanimous absence (kNotFound, possibly with lower-gen
  // tombstones that lost to nothing live). A winning tombstone is
  // propagated onto the live stale repliers.
  if (fresh.deleted || oks.empty()) {
    sub->final = Response::NotFound();
    if (fresh.deleted) RepairStale(*sub, /*deleted=*/true, {}, fresh.gen);
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
  //    header: highest generation wins. PeekDataHeader alone "parses"
  //    any 12 bytes, so the gen is only evidence when EVERY candidate
  //    structurally parses as the codec's object for that block (the
  //    descriptor, or a chunk's AEAD framing) — one raw blob in the set
  //    and the comparison would be garbage against garbage, promoting
  //    whatever noise decodes largest. Mixed or raw payloads fall through
  //    to majority.
  if (winner == nullptr && sub->req->op == OpCode::kGetData) {
    bool all_codec = true;
    for (const auto* u : oks) {
      if (!ObjectCodec::IsDataObject(sub->req->block, u->payload)) {
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
  if (strong_winner) {
    RepairStale(*sub, /*deleted=*/false, winner->payload, winner->gen);
  }
}

void ShardedChannel::RepairStale(const SubState& sub, bool deleted,
                                 const Bytes& payload, uint64_t gen) {
  // Best-effort: a failed repair just leaves the divergence for the next
  // read or the anti-entropy scrubber to heal.
  const std::vector<ssp::Repair> repairs = ssp::RepairsFor(
      *ssp::RefOf(*sub.req), sub.replies, deleted, payload, gen);
  std::vector<ssp::NodeLinks::Ask> asks;
  for (const ssp::Repair& repair : repairs) {
    asks.push_back(
        {ring_.config().nodes[sub.replicas[repair.pos]].id, &repair.fix});
  }
  read_repairs_ += repairs.size();
  for (const Result<Response>& repaired : links_.Exchange(asks)) {
    if (!repaired.ok() || (repaired->status != RespStatus::kOk &&
                           repaired->status != RespStatus::kNotFound)) {
      obs::Log(obs::Severity::kWarn, "client.shard.repair_failed",
               {{"op", ssp::OpCodeName(sub.req->op)},
                {"inode", sub.req->inode}});
    }
  }
}

}  // namespace sharoes::core
