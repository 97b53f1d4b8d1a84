#include "ssp/scrub.h"

#include <chrono>
#include <map>
#include <vector>

#include "obs/log.h"
#include "obs/metrics.h"

namespace sharoes::ssp {

Scrubber::Scrubber(SspServer* server, const PlacementRing* ring,
                   uint32_t node_id, PeerFactory peers)
    : server_(server),
      ring_(ring),
      node_id_(node_id),
      peers_(std::move(peers)),
      runs_(obs::MetricsRegistry::Global().counter("ssp.scrub.runs")),
      repaired_(obs::MetricsRegistry::Global().counter("ssp.scrub.repaired")),
      tombstones_gc_(
          obs::MetricsRegistry::Global().counter("ssp.scrub.tombstones_gc")) {}

ScrubPass Scrubber::RunOnce() {
  ScrubPass pass;
  runs_->Increment();
  const ClusterConfig& config = ring_->config();
  // Channels to peer daemons, opened lazily and reused for the whole
  // pass. A failed call drops its channel — the stream may still owe
  // that request's late reply, which the next key's read would take as
  // its own — and the next call to the peer redials.
  std::map<uint32_t, std::unique_ptr<SspChannel>> peers;
  auto replica_call = [&](uint32_t node_index,
                          const Request& req) -> Result<Response> {
    const ClusterNode& node = config.nodes[node_index];
    if (node.id == node_id_) return server_->Handle(req);
    auto it = peers.find(node_index);
    if (it == peers.end()) {
      auto opened = peers_(node);
      if (!opened.ok()) return opened.status();
      it = peers.emplace(node_index, std::move(*opened)).first;
    }
    auto resp = it->second->Call(req);
    if (!resp.ok()) peers.erase(it);
    return resp;
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
    std::vector<std::optional<VersionedReply>> replies(replicas.size());
    bool all_replied = true;
    for (size_t pos = 0; pos < replicas.size(); ++pos) {
      auto resp = replica_call(replicas[pos], get);
      if (resp.ok()) replies[pos] = DecodeVersioned(*resp);
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
    auto repair = [&](size_t pos, Request fix) {
      fix.has_store_gen = true;
      fix.store_gen = fresh.gen;
      auto r = replica_call(replicas[pos], fix);
      ++pass.repaired;
      if (!r.ok() || (r->status != RespStatus::kOk &&
                      r->status != RespStatus::kNotFound)) {
        obs::Log(obs::Severity::kWarn, "ssp.scrub.repair_failed",
                 {{"node", config.nodes[replicas[pos]].id},
                  {"op", OpCodeName(fix.op)}});
      }
    };
    auto has = [&](size_t pos, RespStatus status) {
      return replies[pos].has_value() && replies[pos]->status == status;
    };

    if (fresh.deleted) {
      // Re-delete onto live stragglers only — never onto replicas that
      // answered missing (absence already agrees with deletion, and
      // re-creating the tombstone there would fight GC forever).
      bool any_live = false;
      for (size_t pos = 0; pos < replicas.size(); ++pos) {
        if (has(pos, RespStatus::kOk)) {
          any_live = true;
          repair(pos, Request::Delete(ref));
        }
      }
      // GC: only with a FULL quorum of replies, none of them live. One
      // unreachable replica could be holding a fresher re-create, so it
      // vetoes the purge. Each daemon purges only its own tombstone, at
      // the exact generation it just observed (a concurrent re-create
      // aborts inside RemoveTombstone).
      if (all_replied && !any_live) {
        for (size_t pos = 0; pos < replicas.size(); ++pos) {
          if (config.nodes[replicas[pos]].id == node_id_ &&
              has(pos, RespStatus::kDeleted) &&
              server_->store().RemoveTombstone(ref, replies[pos]->gen)) {
            ++pass.tombstones_gc;
          }
        }
      }
      continue;
    }

    if (fresh.live.has_value()) {
      const Bytes& winner = replies[*fresh.live]->payload;
      for (size_t pos = 0; pos < replicas.size(); ++pos) {
        if (!replies[pos].has_value() || pos == *fresh.live) continue;
        const VersionedReply& v = *replies[pos];
        if (v.status == RespStatus::kOk && v.gen == fresh.gen &&
            v.payload == winner) {
          continue;
        }
        // Stale live copy, lower-generation tombstone (a legitimate
        // delete-then-recreate), or missing: re-put the winner at its
        // generation. Gen-gating on the receiving store protects any
        // concurrent fresher op.
        repair(pos, Request::Put(ref, winner));
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
