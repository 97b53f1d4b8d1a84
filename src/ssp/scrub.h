// Anti-entropy scrubber: the background repair loop of a replicated SSP
// cluster (DESIGN.md §16).
//
// Read repair only heals keys that clients happen to read. The scrubber
// closes the gap: each daemon periodically walks its own store
// (tombstones included), asks ALL K placement replicas of every key it
// owns for their versioned state (an R=K read: no stale copy can hide),
// and converges the replica set toward the freshest acknowledged state —
// re-putting live winners onto stale or missing replicas, re-deleting
// tombstone winners onto live stragglers. Repairs are gen-gated exactly
// like the client's read repair, so a concurrent fresher write is never
// clobbered, and every local repair goes through SspServer::Handle so it
// is WAL-logged and survives restart.
//
// Tombstone GC: a tombstone may only be purged once it is provably
// redundant — when a FULL quorum pass (all K replicas actually replied;
// one unreachable node aborts the decision) shows every replica is
// tombstone-or-missing, i.e. nobody is left to resurrect the key. Each
// daemon purges only its own local tombstone on its own pass; the purge
// is deliberately not WAL-logged (replay resurrecting a purged tombstone
// is harmless — the next full-quorum pass re-collects it). Repairs never
// push tombstones onto replicas that answered "missing": absence already
// agrees with deletion, and re-creating the tombstone would fight GC
// forever.
//
// Threading: RunOnce() is safe against live traffic (the store is
// shard-striped, Handle is thread-safe). Start() spawns one background
// thread running RunOnce() every interval; Stop() (or destruction) joins
// it promptly via an interruptible wait.

#ifndef SHAROES_SSP_SCRUB_H_
#define SHAROES_SSP_SCRUB_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

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
  /// Opens a channel to one peer daemon. Called lazily per pass (a pass
  /// caches its channels, and redials one after a failed call); may fail
  /// when the peer is down — the pass counts the replica unreachable and
  /// moves on.
  using PeerFactory =
      std::function<Result<std::unique_ptr<SspChannel>>(const ClusterNode&)>;

  /// `server`, `ring` and `peers` must outlive the scrubber. `node_id`
  /// is this daemon's cluster node id (the scrubber only examines keys
  /// the ring says this node replicates).
  Scrubber(SspServer* server, const PlacementRing* ring, uint32_t node_id,
           PeerFactory peers);
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
  PeerFactory peers_;

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
