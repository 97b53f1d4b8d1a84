// Anti-entropy scrubber: the background repair loop of a replicated SSP
// cluster (DESIGN.md §16).
//
// Read repair only heals keys that clients read. Each daemon's scrubber
// walks its own store (tombstones included), reads every key it owns
// from ALL K replicas (an R=K versioned read: no stale copy can hide),
// and repairs the replica set toward the freshest acknowledged state by
// read repair's rules (ssp::SettleFreshest, ssp::RepairsFor), gen-gated
// so a concurrent fresher write is never clobbered.
//
// Tombstone GC: a tombstone is purged only when a FULL quorum pass (all
// K replicas replied; one unreachable node vetoes) shows every replica
// tombstone-or-missing, so nobody is left to resurrect the key. Each
// daemon purges only its own tombstone, and the purge is not WAL-logged:
// a replayed purged tombstone is harmless (the next pass re-collects it).
//
// Transport: a pass owns one ssp::NodeLinks, the links ShardedChannel
// uses too. Each key's remote reads go out as one exchange and its
// remote repairs as another; the local replica is read and repaired
// through SspServer::Handle, so local repairs are WAL-logged.
//
// Threading: RunOnce() is safe against live traffic (the store is
// shard-striped, Handle is thread-safe) and makes no threads. Start()
// spawns one background thread running RunOnce() every interval; Stop()
// (or destruction) joins it promptly via an interruptible wait.

#ifndef SHAROES_SSP_SCRUB_H_
#define SHAROES_SSP_SCRUB_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "net/tcp_stream.h"
#include "ssp/placement.h"
#include "ssp/ssp_server.h"

namespace sharoes::ssp {

/// What one anti-entropy pass did (also mirrored into the metrics
/// registry as ssp.scrub.{runs,repaired,tombstones_gc}).
struct ScrubPass {
  uint64_t examined = 0;       // Owned keys checked against all replicas.
  uint64_t repaired = 0;       // Gen-gated repair ops issued (local+remote).
  uint64_t tombstones_gc = 0;  // Local tombstones purged after full quorum.
  uint64_t unreachable = 0;    // Replica reads that failed (blocks GC).
};

class Scrubber {
 public:
  /// `server` and `ring` must outlive the scrubber. `node_id` is this
  /// daemon's cluster node id (the scrubber only examines keys the ring
  /// says this node replicates). Peers are dialed at their configured
  /// host:port with `peer_timeouts`; a peer that is down counts as an
  /// unreachable replica and the pass moves on.
  Scrubber(SspServer* server, const PlacementRing* ring, uint32_t node_id,
           const net::TcpTimeouts& peer_timeouts);
  ~Scrubber() { Stop(); }
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  /// One full anti-entropy pass over every owned key, synchronously.
  ScrubPass RunOnce();

  /// Spawns the background loop: one RunOnce() every `interval_s`
  /// seconds (first pass after one interval, not immediately — a
  /// just-started daemon is busy replaying its WAL). No-op if already
  /// started or interval_s == 0.
  void Start(uint32_t interval_s);
  /// Joins the background thread. Safe to call twice; called by the
  /// destructor.
  void Stop();

 private:
  SspServer* server_;         // Not owned.
  const PlacementRing* ring_;  // Not owned.
  uint32_t node_id_;
  net::TcpTimeouts peer_timeouts_;

  obs::Counter* runs_;
  obs::Counter* repaired_;
  obs::Counter* tombstones_gc_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_SCRUB_H_
