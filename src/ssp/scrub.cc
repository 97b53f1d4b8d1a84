#include "ssp/scrub.h"

#include <chrono>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"
#include "ssp/tcp_service.h"

namespace sharoes::ssp {

Scrubber::Scrubber(SspServer* server, const PlacementRing* ring,
                   uint32_t node_id, const net::TcpTimeouts& peer_timeouts)
    : server_(server),
      ring_(ring),
      node_id_(node_id),
      peer_timeouts_(peer_timeouts),
      runs_(obs::MetricsRegistry::Global().counter("ssp.scrub.runs")),
      repaired_(obs::MetricsRegistry::Global().counter("ssp.scrub.repaired")),
      tombstones_gc_(
          obs::MetricsRegistry::Global().counter("ssp.scrub.tombstones_gc")) {}

ScrubPass Scrubber::RunOnce() {
  ScrubPass pass;
  runs_->Increment();
  const ClusterConfig& config = ring_->config();
  NodeLinks links(config.nodes, peer_timeouts_);  // For this pass.
  // Asks of this daemon go through Handle (WAL-logged), the rest as one
  // exchange. Result j answers asks[j].
  auto call = [&](const std::vector<NodeLinks::Ask>& asks) {
    std::vector<NodeLinks::Ask> remote;
    for (const NodeLinks::Ask& ask : asks) {
      if (ask.node_id != node_id_) remote.push_back(ask);
    }
    std::vector<Result<Response>> answers = links.Exchange(remote);
    std::vector<Result<Response>> results;
    auto answer = answers.begin();
    for (const NodeLinks::Ask& ask : asks) {
      results.push_back(ask.node_id == node_id_
                            ? Result<Response>(server_->Handle(*ask.req))
                            : std::move(*answer++));
    }
    return results;
  };

  // The enumeration is a point-in-time shard-consistent listing; each
  // key is then re-read versioned from every replica, so entries that
  // changed since the listing are judged on fresh state.
  for (const ObjectVersion& entry : server_->store().ListVersions()) {
    const ObjectRef& ref = entry.ref;
    Request get = Request::Get(ref);
    const uint64_t key = RoutingKeyOf(get);
    // Strays from an older ring epoch: their current owners scrub them.
    if (!ring_->Owns(node_id_, key)) continue;
    ++pass.examined;
    get.want_version = true;

    // One decoded versioned answer per replica position; unset = the
    // replica gave no usable reply.
    const std::vector<uint32_t> replicas = ring_->ReplicaIndicesFor(key);
    std::vector<NodeLinks::Ask> reads;
    for (uint32_t node : replicas) {
      reads.push_back({config.nodes[node].id, &get});
    }
    std::vector<Result<Response>> answers = call(reads);
    std::vector<std::optional<VersionedReply>> replies(replicas.size());
    bool all_replied = true;
    for (size_t pos = 0; pos < replicas.size(); ++pos) {
      if (answers[pos].ok()) replies[pos] = DecodeVersioned(*answers[pos]);
      if (!replies[pos].has_value()) {
        all_replied = false;
        ++pass.unreachable;
      }
    }

    // Freshest acknowledged state: the same rule as the client's
    // SettleRead. A live tie with diverged bytes has no winner here:
    // leave it for a client read (which has session fingerprints)
    // rather than guess — a wrong scrub repair would propagate the
    // guess to all K.
    const Freshest fresh = SettleFreshest(replies);
    std::vector<Repair> repairs;
    if (fresh.deleted) {
      repairs = RepairsFor(ref, replies, /*deleted=*/true, Bytes{}, fresh.gen);
    } else if (fresh.live.has_value()) {
      repairs = RepairsFor(ref, replies, /*deleted=*/false,
                           replies[*fresh.live]->payload, fresh.gen);
    }
    std::vector<NodeLinks::Ask> fixes;
    for (const Repair& repair : repairs) {
      fixes.push_back({config.nodes[replicas[repair.pos]].id, &repair.fix});
    }
    std::vector<Result<Response>> fixed = call(fixes);
    pass.repaired += repairs.size();
    for (size_t j = 0; j < fixed.size(); ++j) {
      if (!fixed[j].ok() || (fixed[j]->status != RespStatus::kOk &&
                             fixed[j]->status != RespStatus::kNotFound)) {
        obs::Log(obs::Severity::kWarn, "ssp.scrub.repair_failed",
                 {{"node", fixes[j].node_id},
                  {"op", OpCodeName(fixes[j].req->op)}});
      }
    }

    // Tombstone GC: only with a FULL quorum of replies, none of them
    // live (a live one just got a re-delete). One unreachable replica
    // could be holding a fresher re-create, so it vetoes the purge. Each
    // daemon purges only its own tombstone, at the exact generation it
    // just observed (a concurrent re-create aborts inside
    // RemoveTombstone).
    if (fresh.deleted && all_replied && repairs.empty()) {
      for (size_t pos = 0; pos < replicas.size(); ++pos) {
        if (config.nodes[replicas[pos]].id == node_id_ &&
            replies[pos]->status == RespStatus::kDeleted &&
            server_->store().RemoveTombstone(ref, replies[pos]->gen)) {
          ++pass.tombstones_gc;
        }
      }
    }
  }

  repaired_->Add(pass.repaired);
  tombstones_gc_->Add(pass.tombstones_gc);
  obs::Log(obs::Severity::kInfo, "ssp.scrub.pass",
           {{"examined", pass.examined},
            {"repaired", pass.repaired},
            {"tombstones_gc", pass.tombstones_gc},
            {"unreachable", pass.unreachable}});
  return pass;
}

void Scrubber::Start(uint32_t interval_s) {
  if (interval_s == 0 || thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this, interval_s] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::seconds(interval_s),
                       [this] { return stop_; })) {
        break;
      }
      lock.unlock();
      RunOnce();
      lock.lock();
    }
  });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace sharoes::ssp
