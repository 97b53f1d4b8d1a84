// sharoes_sspd: the SSP data-serving tool as a standalone network daemon
// (paper §IV, component 2). Serves the client <-> SSP protocol over TCP.
//
// Usage:
//   sharoes_sspd [port] [--cluster FILE --node-id N]
//                [--wal DIR [wal flags]] [fault flags]
//
// Default port 7070 (0 picks an ephemeral port). Every flag takes one
// value; an unknown flag, a flag without its value, a malformed number
// or a port outside 0..65535 exits 1 with a message.
//
// --cluster FILE --node-id N make the daemon one shard of a replicated
// fleet (DESIGN.md §15): FILE is a placement config (ssp/placement.h
// text format, the same file every daemon and client loads) and N is
// this daemon's node id in it. The daemon then refuses ops whose
// routing key the ring does not place on node N with kWrongShard —
// before touching the WAL — so a client with a stale ring can never
// scribble on the wrong shard. Without an explicit positional port, the
// port of node N's config entry is used, so a fleet can be started as
// `sharoes_sspd --cluster c.conf --node-id 0` / `... --node-id 1` / ….
// Cluster mode also enables delete tombstones (DESIGN.md §16): deletes
// leave versioned tombstones instead of erasing, so a replica that
// slept through a delete is told the key is dead instead of
// resurrecting it.
//
// --scrub-interval-s N (cluster mode only) runs the anti-entropy
// scrubber every N seconds: each pass reads every owned key from all K
// replicas, repairs stale/missing/resurrected copies toward the
// freshest acknowledged state, and garbage-collects tombstones that a
// full quorum agrees are redundant (ssp/scrub.h; counters
// ssp.scrub.{runs,repaired,tombstones_gc}). 0 (default) disables the
// background thread.
//
// --wal DIR makes the store durable: every mutating op is appended to a
// write-ahead log in DIR before it is acknowledged, and startup recovers
// snapshot + log (tolerating a torn tail from a crash). See DESIGN.md
// §10 for the guarantees per sync policy:
//   --wal-sync always|interval|off   durability point (default always)
//   --wal-interval-ms N              flush cadence for `interval` (def. 50)
//   --wal-compact-bytes N            segment size that triggers background
//                                    snapshot compaction (default 64 MiB)
//   --wal-group-commit-us N          group-commit window for `always`: the
//                                    commit leader lingers N µs so
//                                    concurrent requests share its fsync
//                                    (default 0 = pure piggybacking)
//
// The daemon starts empty without --wal (and loses its store at exit);
// an enterprise provisions it remotely through the same wire protocol
// (see tools/sharoes_cli.cc). With --wal, a restart on the same DIR
// serves everything the last run acknowledged, after a graceful exit or
// a kill -9 alike (within the --wal-sync policy's loss window).
//
// `sharoes_cli stats` reads the daemon's metrics registry (kGetStats).
//
// --slow-request-us N captures the span timeline of any traced request
// whose service time exceeds N µs into the slow-request ring (drained
// by kGetTraces / `sharoes_cli slow`; default 10000, 0 disables ring
// capture while the slowest-ever table keeps updating).
//
// Fault flags turn the daemon into its own chaos monkey (percentages of
// requests, evaluated in this order; 0 disables each):
//   --fault-fail-pct P      reply kError without executing
//   --fault-delay-pct P     delay the reply by --fault-delay-ms (def. 5)
//   --fault-corrupt-pct P   flip one reply payload byte
//   --fault-drop-pct P      sever the connection mid-frame
//   --fault-seed N          deterministic schedule seed (default 1)
// Clients behind core::RetryingConnection ride out everything except
// corruption, which their integrity layer must reject instead.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <unistd.h>

#include <map>
#include <memory>
#include <string>

#include "obs/span.h"
#include "ssp/fault_injection.h"
#include "ssp/placement.h"
#include "ssp/scrub.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"
#include "flags.h"

using namespace sharoes::tools;

namespace {
volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "sharoes_sspd: %s\n"
               "usage: sharoes_sspd [port] [--cluster FILE --node-id N] "
               "[--wal DIR [wal flags]] [fault flags]\n",
               error.c_str());
  return 1;
}

/// A percentage in [0, 100], stored as a probability.
FlagParser PctFlag(double* field) {
  return [field](const char* text) {
    char* end = nullptr;
    double pct = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(pct >= 0 && pct <= 100)) {
      return false;
    }
    *field = pct / 100.0;
    return true;
  };
}
}  // namespace

int main(int argc, char** argv) {
  uint16_t port = 7070;
  bool explicit_port = false;
  std::string wal_dir;
  std::string cluster_path;
  int node_id = -1;
  sharoes::ssp::WalOptions wal_opts;
  int scrub_interval_s = 0;
  uint64_t slow_request_us = sharoes::obs::SlowRequestThresholdUs();
  sharoes::ssp::FaultPolicy::Options fault_opts;
  const std::map<std::string, Flag> flags = {
      {"--cluster", StringFlag(&cluster_path)},
      {"--node-id", UintFlag(&node_id)},
      {"--wal", StringFlag(&wal_dir)},
      {"--wal-sync",
       [&](const char* text) {
         return sharoes::ssp::ParseWalSyncPolicy(text, &wal_opts.sync);
       }},
      {"--wal-interval-ms", UintFlag(&wal_opts.interval_ms)},
      {"--wal-compact-bytes", UintFlag(&wal_opts.compact_threshold_bytes)},
      {"--wal-group-commit-us", UintFlag(&wal_opts.group_commit_us)},
      {"--scrub-interval-s", UintFlag(&scrub_interval_s)},
      {"--slow-request-us", UintFlag(&slow_request_us)},
      {"--fault-fail-pct", PctFlag(&fault_opts.fail_prob)},
      {"--fault-delay-pct", PctFlag(&fault_opts.delay_prob)},
      {"--fault-corrupt-pct", PctFlag(&fault_opts.corrupt_prob)},
      {"--fault-drop-pct", PctFlag(&fault_opts.drop_prob)},
      {"--fault-delay-ms", UintFlag(&fault_opts.delay_ms)},
      {"--fault-seed", UintFlag(&fault_opts.seed)},
  };
  const std::string error =
      ParseFlags(argc, argv, flags, [&](const char* text) -> std::string {
        uint64_t p = 0;
        if (explicit_port || !ParseUint(text, 65535, &p)) {
          return std::string("bad port '") + text + "' (one port, 0..65535)";
        }
        port = static_cast<uint16_t>(p);
        explicit_port = true;
        return "";
      });
  if (!error.empty()) return Usage(error);
  sharoes::obs::SetSlowRequestThresholdUs(slow_request_us);

  if (cluster_path.empty() != (node_id < 0)) {
    std::fprintf(stderr,
                 "sharoes_sspd: --cluster and --node-id go together\n");
    return 1;
  }
  std::unique_ptr<sharoes::ssp::PlacementRing> ring;
  if (!cluster_path.empty()) {
    auto config = sharoes::ssp::ClusterConfig::LoadFromFile(cluster_path);
    if (!config.ok()) {
      std::fprintf(stderr, "sharoes_sspd: cannot load %s: %s\n",
                   cluster_path.c_str(),
                   config.status().ToString().c_str());
      return 1;
    }
    const sharoes::ssp::ClusterNode* self = nullptr;
    for (const auto& node : config->nodes) {
      if (node.id == static_cast<uint32_t>(node_id)) self = &node;
    }
    if (self == nullptr) {
      std::fprintf(stderr, "sharoes_sspd: node id %d is not in %s\n",
                   node_id, cluster_path.c_str());
      return 1;
    }
    if (!explicit_port) port = self->port;
    auto built = sharoes::ssp::PlacementRing::Build(std::move(*config));
    if (!built.ok()) {
      std::fprintf(stderr, "sharoes_sspd: bad cluster config: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    ring = std::make_unique<sharoes::ssp::PlacementRing>(std::move(*built));
  }

  sharoes::ssp::SspServer server;
  if (ring != nullptr) {
    server.set_placement(ring.get(), static_cast<uint32_t>(node_id));
    // Tombstones must be on BEFORE WAL recovery: the log may hold
    // gen-gated repair deletes whose replay must leave tombstones, not
    // erase, or a restart silently re-opens the resurrection window.
    server.store().set_tombstones_enabled(true);
    std::printf("sharoes_sspd: shard node %d of a %zu-node cluster (%s)\n",
                node_id, ring->config().nodes.size(), cluster_path.c_str());
  }
  std::unique_ptr<sharoes::ssp::Wal> wal;
  if (!wal_dir.empty()) {
    auto opened =
        sharoes::ssp::Wal::Open(wal_dir, wal_opts, &server.store());
    if (!opened.ok()) {
      std::fprintf(stderr, "sharoes_sspd: wal recovery failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    wal = std::move(*opened);
    const auto& rec = wal->recovery();
    std::printf(
        "sharoes_sspd: wal recovered from %s (sync=%s): snapshot %s "
        "seq %llu, %llu records replayed, %llu skipped, last seq %llu%s\n",
        wal_dir.c_str(), sharoes::ssp::WalSyncPolicyName(wal_opts.sync),
        rec.had_snapshot ? "at" : "absent,",
        static_cast<unsigned long long>(rec.snapshot_seq),
        static_cast<unsigned long long>(rec.records_applied),
        static_cast<unsigned long long>(rec.records_skipped),
        static_cast<unsigned long long>(rec.last_seq),
        rec.tail_truncated ? " (torn tail truncated)" : "");
    server.set_wal(wal.get());
  }
  std::unique_ptr<sharoes::ssp::FaultPolicy> faults;
  if (fault_opts.fail_prob + fault_opts.delay_prob +
          fault_opts.corrupt_prob + fault_opts.drop_prob >
      0) {
    faults = std::make_unique<sharoes::ssp::FaultPolicy>(fault_opts);
    server.set_fault_injector(faults.get());
    std::printf(
        "sharoes_sspd: fault injection armed (fail %.1f%% delay %.1f%% "
        "corrupt %.1f%% drop %.1f%%, seed %llu)\n",
        fault_opts.fail_prob * 100, fault_opts.delay_prob * 100,
        fault_opts.corrupt_prob * 100, fault_opts.drop_prob * 100,
        static_cast<unsigned long long>(fault_opts.seed));
  }
  auto daemon = sharoes::ssp::TcpSspDaemon::Start(&server, port);
  if (!daemon.ok()) {
    std::fprintf(stderr, "sharoes_sspd: %s\n",
                 daemon.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<sharoes::ssp::Scrubber> scrubber;
  if (scrub_interval_s > 0) {
    if (ring == nullptr) {
      std::fprintf(stderr,
                   "sharoes_sspd: --scrub-interval-s needs --cluster "
                   "(a lone daemon has no replicas to converge)\n");
      return 1;
    }
    sharoes::net::TcpTimeouts peer_timeouts{/*connect_ms=*/2000,
                                            /*send_ms=*/5000,
                                            /*recv_ms=*/5000};
    scrubber = std::make_unique<sharoes::ssp::Scrubber>(
        &server, ring.get(), static_cast<uint32_t>(node_id), peer_timeouts);
    scrubber->Start(static_cast<uint32_t>(scrub_interval_s));
    std::printf("sharoes_sspd: anti-entropy scrubber every %ds\n",
                scrub_interval_s);
  }
  std::printf("sharoes_sspd: serving on 127.0.0.1:%u (ctrl-c to stop)\n",
              (*daemon)->port());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    ::pause();
  }
  std::printf("sharoes_sspd: shutting down\n");
  // Scrubber first: its repair path calls server.Handle, which must not
  // race the WAL detach below.
  scrubber.reset();
  (*daemon)->Shutdown();
  if (faults != nullptr) {
    auto counts = faults->counts();
    std::printf(
        "sharoes_sspd: injected %llu faults over %llu requests "
        "(%llu failed, %llu delayed, %llu corrupted, %llu dropped)\n",
        static_cast<unsigned long long>(counts.injected()),
        static_cast<unsigned long long>(counts.requests),
        static_cast<unsigned long long>(counts.failed),
        static_cast<unsigned long long>(counts.delayed),
        static_cast<unsigned long long>(counts.corrupted),
        static_cast<unsigned long long>(counts.dropped));
  }
  if (wal != nullptr) {
    // Graceful exit: make everything appended durable, then fold the log
    // into a snapshot so the next startup replays nothing. Both are
    // best-effort — even without them the log already holds every
    // acknowledged op up to its sync-policy guarantee.
    sharoes::Status synced = wal->Sync();
    if (!synced.ok()) {
      std::fprintf(stderr, "sharoes_sspd: final wal sync failed: %s\n",
                   synced.ToString().c_str());
    }
    sharoes::Status compacted = wal->Compact();
    if (compacted.ok()) {
      std::printf("sharoes_sspd: wal compacted at seq %llu\n",
                  static_cast<unsigned long long>(wal->last_sequence()));
    } else {
      std::fprintf(stderr, "sharoes_sspd: final wal compaction failed: %s\n",
                   compacted.ToString().c_str());
    }
    server.set_wal(nullptr);
    wal.reset();
  }
  return 0;
}
