// The cluster proof harness (tentpole of the multi-daemon SSP PR):
// a 3-daemon, K=3/W=2/R=2 WAL-backed cluster runs the Andrew workload
// while one replica is SIGKILLed and recovered under it, and the
// client-visible results must be byte-identical to a clean run — the
// quorum machinery, not luck, carries the session through. A scrub
// pass (R = K) then proves read repair converges the survivors' and
// the flapped replica's stores, and the negative leg proves the proof:
// the same kill against an unreplicated cluster with retries off fails
// deterministically.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/sharded_channel.h"
#include "ssp/placement.h"
#include "ssp/scrub.h"
#include "testing/andrew_client.h"
#include "testing/cluster.h"
#include "testing/stress.h"

namespace sharoes::ssp {
namespace {

using core::ShardedChannel;
using core::ShardedChannelOptions;
using testing::ReplicaFlapper;
using testing::TestCluster;

TestCluster::Options ReplicatedWal(const std::string& tag) {
  TestCluster::Options opts;  // 3 nodes, K=3, W=2, R=2 by default.
  opts.tag = tag;
  return opts;
}

Bytes RunCleanBaseline() {
  TestCluster cluster(ReplicatedWal("failover_baseline"));
  cluster.Start();
  auto ent = testing::ProvisionOverCluster(&cluster);
  auto engine = testing::MakeEngine(&ent->clock, 7);
  auto channel = cluster.MakeChannel();
  auto client = testing::MakeClient(ent.get(), channel.get(), engine.get());
  EXPECT_TRUE(client->Mount().ok());
  auto transcript = testing::RunAndrewSequence(client.get());
  EXPECT_TRUE(transcript.ok()) << transcript.status();
  return transcript.ok() ? *transcript : Bytes{};
}

TEST(ClusterFailover, AndrewIsByteIdenticalThroughReplicaSigkill) {
  Bytes baseline = RunCleanBaseline();
  ASSERT_FALSE(baseline.empty());

  TestCluster cluster(ReplicatedWal("failover_chaos"));
  cluster.Start();
  auto ent = testing::ProvisionOverCluster(&cluster);
  auto engine = testing::MakeEngine(&ent->clock, 7);
  auto channel = cluster.MakeChannel();
  auto client = testing::MakeClient(ent.get(), channel.get(), engine.get());
  ASSERT_TRUE(client->Mount().ok());

  Bytes transcript;
  {
    // SIGKILL node 1 immediately (the Andrew run starts against a
    // 2/3 cluster), recover it from its WAL after 60ms, serve 50ms,
    // kill again — until the workload is done AND at least two full
    // kill/recover cycles genuinely interleaved with live traffic.
    ReplicaFlapper flapper(cluster.node(1), /*down_ms=*/60, /*up_ms=*/50);
    auto result = testing::RunAndrewSequence(client.get());
    ASSERT_TRUE(result.ok()) << result.status();
    transcript = std::move(*result);
    for (int round = 0; flapper.flaps() < 2 && round < 2000; ++round) {
      client->DropCaches();
      for (int i = 0; i < testing::kSourceFiles; ++i) {
        auto content =
            client->Read("/proj/src/f" + std::to_string(i) + ".c");
        ASSERT_TRUE(content.ok()) << content.status();
        ASSERT_EQ(*content, testing::SourceContent(i));
      }
    }
    EXPECT_GE(flapper.flaps(), 2);
  }  // Flapper stops; node 1 is up (recovered from its WAL).

  // The headline: a client cannot tell this cluster lost a replica.
  EXPECT_EQ(transcript, baseline);

  // Anti-entropy scrub: a fresh session reading with R = K quorum-reads
  // every object a full traversal touches, and read repair re-puts the
  // winning copy to whichever replica missed it while dead. Afterwards
  // all three stores must agree byte-for-byte on every file's data.
  ClusterConfig scrub_config = cluster.config();
  scrub_config.read_quorum = scrub_config.replication;
  auto scrub_channel = cluster.MakeChannelWithConfig(scrub_config);
  ASSERT_NE(scrub_channel, nullptr);
  auto scrub_engine = testing::MakeEngine(&ent->clock, 11);
  auto scrub_client =
      testing::MakeClient(ent.get(), scrub_channel.get(),
                          scrub_engine.get());
  ASSERT_TRUE(scrub_client->Mount().ok());
  std::vector<std::pair<std::string, fs::InodeNum>> files;
  for (int i = 0; i < testing::kSourceFiles; ++i) {
    for (std::string path : {"/proj/src/f" + std::to_string(i) + ".c",
                             "/proj/obj/f" + std::to_string(i) + ".o"}) {
      auto content = scrub_client->Read(path);
      ASSERT_TRUE(content.ok()) << path << ": " << content.status();
      auto attrs = scrub_client->Getattr(path);
      ASSERT_TRUE(attrs.ok());
      files.emplace_back(path, attrs->inode);
    }
  }
  for (const auto& [path, inode] : files) {
    for (uint32_t block = 0; block < 8; ++block) {
      auto copy0 = cluster.node(0)->server()->store().GetData(inode, block);
      auto copy1 = cluster.node(1)->server()->store().GetData(inode, block);
      auto copy2 = cluster.node(2)->server()->store().GetData(inode, block);
      ASSERT_EQ(copy0.has_value(), copy1.has_value())
          << path << " block " << block;
      ASSERT_EQ(copy0.has_value(), copy2.has_value())
          << path << " block " << block;
      if (copy0.has_value()) {
        EXPECT_EQ(*copy0, *copy1) << path << " block " << block;
        EXPECT_EQ(*copy0, *copy2) << path << " block " << block;
      }
    }
  }
}

TEST(ClusterFailover, QuorumReadRepairsAReplicaThatMissedAWrite) {
  // Deterministic divergence, no timing: kill node 2, write while it is
  // down (W=2 acks from the survivors), bring it back empty (no WAL),
  // and read the key whose PREFERRED replica is the amnesiac — the R=2
  // quorum then provably contains one stale and one fresh reply.
  TestCluster::Options opts = ReplicatedWal("failover_repair");
  opts.wal = false;  // A restarted node comes back with nothing.
  TestCluster cluster(opts);
  cluster.Start();

  uint64_t inode = 0;
  for (uint64_t candidate = 1; candidate < 1000; ++candidate) {
    if (cluster.ring().PrimaryIndexFor(candidate) == 2) {
      inode = candidate;
      break;
    }
  }
  ASSERT_NE(inode, 0u) << "no key prefers node 2 below 1000";
  Bytes v2{0xCA, 0xFE, 0xBA, 0xBE, 0x02};

  auto writer = cluster.MakeChannel();
  ASSERT_NE(writer, nullptr);
  cluster.node(2)->KillHard();
  auto put = writer->Call(Request::PutData(inode, 0, v2));
  ASSERT_TRUE(put.ok()) << put.status();
  ASSERT_EQ(put->status, RespStatus::kOk) << "W=2 must ack without node 2";
  cluster.node(2)->Restart();
  ASSERT_FALSE(
      cluster.node(2)->server()->store().GetData(inode, 0).has_value())
      << "node 2 must start amnesiac for the divergence to be real";

  // A FRESH channel (no session fingerprint of the write) must still
  // return the quorum-fresh copy: the preferred replica answers
  // kNotFound, the overlap replica answers v2, and the winner repairs
  // the amnesiac inline.
  auto reader = cluster.MakeChannel();
  ASSERT_NE(reader, nullptr);
  auto got = reader->Call(Request::GetData(inode, 0));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->status, RespStatus::kOk);
  EXPECT_EQ(got->payload, v2);
  EXPECT_GE(reader->read_repairs(), 1u);
  auto healed = cluster.node(2)->server()->store().GetData(inode, 0);
  ASSERT_TRUE(healed.has_value()) << "read repair did not re-put";
  EXPECT_EQ(*healed, v2);

  // And the writing channel recognizes its own write by fingerprint.
  auto own = writer->Call(Request::GetData(inode, 0));
  ASSERT_TRUE(own.ok());
  ASSERT_EQ(own->status, RespStatus::kOk);
  EXPECT_EQ(own->payload, v2);
}

/// Polls `cond` for up to two seconds (quorum writes ack at W; the
/// straggler replica's copy can land a beat later).
bool Eventually(const std::function<bool()>& cond) {
  for (int i = 0; i < 200; ++i) {
    if (cond()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return cond();
}

/// Picks `count` inodes whose PREFERRED replica is `node_index`, so the
/// default read quorum provably contains that node.
std::vector<uint64_t> InodesPreferring(const TestCluster& cluster,
                                       uint32_t node_index, size_t count) {
  std::vector<uint64_t> inodes;
  for (uint64_t candidate = 1; candidate < 5000 && inodes.size() < count;
       ++candidate) {
    if (cluster.ring().PrimaryIndexFor(candidate) == node_index) {
      inodes.push_back(candidate);
    }
  }
  EXPECT_EQ(inodes.size(), count) << "rebalance the test key range";
  return inodes;
}

TEST(ClusterFailover, DeleteSurvivesAnAmnesiacReplicaRestart) {
  // The resurrection regression (tentpole of the tombstone PR). The
  // dangerous interleaving: a replica holds a key, sleeps through its
  // deletion, and recovers from its WAL still offering the stale live
  // copy. With erase-style deletes the survivors hold NOTHING to refute
  // it, so a quorum read resurrects the key and read repair spreads it
  // back to the healthy majority (the negative control below shows
  // exactly that). With replicated tombstones the delete IS state: a
  // versioned tombstone on the write quorum outranks the stale copy.
  TestCluster cluster(ReplicatedWal("failover_tombstone"));
  cluster.Start();

  // Two keys preferring node 2 (the future amnesiac is in every default
  // read quorum): one healed by read repair, one — never read — by the
  // anti-entropy scrubber.
  std::vector<uint64_t> inodes = InodesPreferring(cluster, 2, 2);
  Bytes v{0xDE, 0xAD, 0xBE, 0xEF, 0x01};

  auto writer = cluster.MakeChannel();
  ASSERT_NE(writer, nullptr);
  for (uint64_t inode : inodes) {
    auto put = writer->Call(Request::PutData(inode, 0, v));
    ASSERT_TRUE(put.ok()) << put.status();
    ASSERT_EQ(put->status, RespStatus::kOk);
  }
  // All three replicas must hold the value before the kill, or "slept
  // through the delete" would not be what this test exercises.
  for (int node = 0; node < 3; ++node) {
    for (uint64_t inode : inodes) {
      ASSERT_TRUE(Eventually([&] {
        return cluster.node(node)
            ->server()
            ->store()
            .GetData(inode, 0)
            .has_value();
      })) << "node " << node << " never received inode " << inode;
    }
  }

  cluster.node(2)->KillHard();
  for (uint64_t inode : inodes) {
    auto del = writer->Call(Request::DeleteData(inode, 0));
    ASSERT_TRUE(del.ok()) << del.status();
    ASSERT_EQ(del->status, RespStatus::kOk) << "W=2 must ack without node 2";
  }
  cluster.node(2)->Restart();  // WAL replays the puts — not the deletes.
  for (uint64_t inode : inodes) {
    ASSERT_TRUE(
        cluster.node(2)->server()->store().GetData(inode, 0).has_value())
        << "node 2 must come back offering the stale copy for the "
           "divergence to be real";
  }

  // Read-repair leg: a FRESH channel (no session marks — this client
  // never saw the delete) must still see it, and push it onto the
  // amnesiac inline.
  auto reader = cluster.MakeChannel();
  ASSERT_NE(reader, nullptr);
  auto got = reader->Call(Request::GetData(inodes[0], 0));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got->status, RespStatus::kNotFound) << "resurrected!";
  EXPECT_FALSE(
      cluster.node(2)->server()->store().GetData(inodes[0], 0).has_value())
      << "read repair did not re-delete the stale copy";
  // The deleting channel agrees with itself, too (its session mark was
  // flipped by the delete, not erased).
  auto own = writer->Call(Request::GetData(inodes[0], 0));
  ASSERT_TRUE(own.ok()) << own.status();
  EXPECT_EQ(own->status, RespStatus::kNotFound);

  // Scrubber leg: nobody ever reads inodes[1]; a node-0 anti-entropy
  // pass must find the divergence and re-delete the stale copy. (The
  // same pass already sees inodes[0] all-tombstone — the read repair
  // above healed it — so node 0's tombstone for it is GC'd here; the
  // pass's count joins the GC tally below.)
  auto scrub0 = cluster.MakeScrubber(0);
  ScrubPass pass = scrub0->RunOnce();
  EXPECT_GE(pass.examined, 2u);
  EXPECT_GE(pass.repaired, 1u);
  EXPECT_EQ(pass.unreachable, 0u);
  EXPECT_FALSE(
      cluster.node(2)->server()->store().GetData(inodes[1], 0).has_value())
      << "the scrubber did not re-delete the stale copy";

  // GC leg: once every replica agrees the keys are dead, the tombstones
  // themselves are garbage — each node's own full-quorum pass purges
  // them and the stores return to their (empty) baseline.
  auto scrub1 = cluster.MakeScrubber(1);
  auto scrub2 = cluster.MakeScrubber(2);
  uint64_t gc_total = pass.tombstones_gc;
  for (int round = 0; round < 2; ++round) {
    gc_total += scrub0->RunOnce().tombstones_gc;
    gc_total += scrub1->RunOnce().tombstones_gc;
    gc_total += scrub2->RunOnce().tombstones_gc;
  }
  EXPECT_EQ(gc_total, 6u) << "one tombstone per node per key";
  for (int node = 0; node < 3; ++node) {
    auto versions = cluster.node(node)->server()->store().ListVersions();
    EXPECT_TRUE(versions.empty())
        << "node " << node << " still holds " << versions.size()
        << " entries after full-quorum GC";
    auto stats = cluster.node(node)->server()->store().Stats();
    EXPECT_EQ(stats.tombstone_count, 0u) << "node " << node;
  }
}

TEST(ClusterFailover, WithoutTombstonesTheSameRestartResurrectsTheKey) {
  // Negative control: the identical choreography against erase-style
  // deletes (the pre-tombstone seed semantics) MUST resurrect the key.
  // If this leg ever starts passing as kNotFound, the positive test
  // above is green for some hidden reason other than tombstones.
  TestCluster::Options opts = ReplicatedWal("failover_resurrect");
  opts.tombstones = false;
  TestCluster cluster(opts);
  cluster.Start();

  std::vector<uint64_t> inodes = InodesPreferring(cluster, 2, 1);
  Bytes v{0xDE, 0xAD, 0xBE, 0xEF, 0x02};

  auto writer = cluster.MakeChannel();
  ASSERT_NE(writer, nullptr);
  auto put = writer->Call(Request::PutData(inodes[0], 0, v));
  ASSERT_TRUE(put.ok()) << put.status();
  ASSERT_EQ(put->status, RespStatus::kOk);
  for (int node = 0; node < 3; ++node) {
    ASSERT_TRUE(Eventually([&] {
      return cluster.node(node)
          ->server()
          ->store()
          .GetData(inodes[0], 0)
          .has_value();
    }));
  }

  cluster.node(2)->KillHard();
  auto del = writer->Call(Request::DeleteData(inodes[0], 0));
  ASSERT_TRUE(del.ok()) << del.status();
  ASSERT_EQ(del->status, RespStatus::kOk);
  cluster.node(2)->Restart();

  // A fresh reader finds one stale live copy against two erased (not
  // tombstoned — silent) replicas, and the zombie wins.
  auto reader = cluster.MakeChannel();
  ASSERT_NE(reader, nullptr);
  auto got = reader->Call(Request::GetData(inodes[0], 0));
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->status, RespStatus::kOk)
      << "erase-style delete did NOT resurrect — the positive leg above "
         "is proving nothing";
  EXPECT_EQ(got->payload, v);
}

/// A NodeFactory over `cluster` that counts every dial per node id and
/// arms `timeouts` on the streams it opens.
ShardedChannel::NodeFactory CountingFactory(
    TestCluster* cluster, std::array<std::atomic<int>, 3>* dials,
    net::TcpTimeouts timeouts) {
  return [cluster, dials, timeouts](const ClusterNode& node)
             -> Result<std::unique_ptr<SspChannel>> {
    (*dials)[node.id].fetch_add(1);
    uint16_t port = cluster->node(static_cast<int>(node.id))->port();
    auto ch = TcpSspChannel::Connect("127.0.0.1", port, timeouts);
    if (!ch.ok()) return ch.status();
    return std::unique_ptr<SspChannel>(std::move(*ch));
  };
}

TEST(ClusterFailover, DeadNodeIsDialedAtMostOncePerRound) {
  // The quorum round loop is the cluster path's only retry layer: a
  // dead node is redialed only when a round reaches it, so one Call
  // dials it at most once per round it runs, and never more than
  // quorum_rounds times. A per-node retry nested under the rounds
  // dials it several times inside every round.
  TestCluster cluster(ReplicatedWal("failover_dials"));
  cluster.Start();
  std::array<std::atomic<int>, 3> dials{};
  ShardedChannelOptions sopts;
  sopts.seed = 1;
  auto channel = ShardedChannel::Create(
      cluster.config(),
      CountingFactory(&cluster, &dials, net::TcpTimeouts{2000, 5000, 5000}),
      sopts);
  ASSERT_TRUE(channel.ok()) << channel.status();
  cluster.node(2)->KillHard();

  auto call = [&](const Request& req) {
    const int dials_before = dials[2].load();
    const uint64_t retries_before = (*channel)->quorum_retry_rounds();
    auto resp = (*channel)->Call(req);
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->status, RespStatus::kOk);
    const int node_dials = dials[2].load() - dials_before;
    const uint64_t rounds =
        1 + (*channel)->quorum_retry_rounds() - retries_before;
    EXPECT_LE(static_cast<uint64_t>(node_dials), rounds)
        << OpCodeName(req.op) << ": dead node dialed more than once a round";
    EXPECT_LE(node_dials, sopts.quorum_rounds);
  };
  // K=3: every write targets the dead node. Reads of keys that prefer
  // it target it first and then fail over.
  for (uint64_t inode : InodesPreferring(cluster, 2, 8)) {
    Bytes v{static_cast<uint8_t>(inode), 0x5A};
    call(Request::PutData(inode, 0, v));
    call(Request::GetData(inode, 0));
  }
  EXPECT_GE(dials[2].load(), 8) << "the dead node was never asked";
}

TEST(ClusterFailover, CallLatencyStaysUnderTheRetryCeiling) {
  // DESIGN.md §8's worst case for one Call: quorum_rounds × (connect_ms
  // + send_ms + recv_ms) + Σ backoff, each backoff at its +20% jitter
  // extreme, plus one round trip per read repair (at most K-1). Under a
  // flapping replica no Call may exceed it.
  TestCluster cluster(ReplicatedWal("failover_ceiling"));
  cluster.Start();
  const net::TcpTimeouts timeouts{/*connect_ms=*/500, /*send_ms=*/1000,
                                  /*recv_ms=*/1000};
  std::array<std::atomic<int>, 3> dials{};
  ShardedChannelOptions sopts;
  sopts.seed = 1;
  auto channel = ShardedChannel::Create(
      cluster.config(), CountingFactory(&cluster, &dials, timeouts), sopts);
  ASSERT_TRUE(channel.ok()) << channel.status();

  const double round_trip_ms =
      timeouts.connect_ms + timeouts.send_ms + timeouts.recv_ms;
  double backoff_ms = 0;
  for (int r = 1; r < sopts.quorum_rounds; ++r) {
    backoff_ms += 1.2 * std::min<double>(sopts.round_backoff_ms *
                                             std::pow(2.0, r - 1),
                                         sopts.max_round_backoff_ms);
  }
  const double repairs = cluster.config().replication - 1;
  const double ceiling_ms =
      (sopts.quorum_rounds + repairs) * round_trip_ms + backoff_ms;

  double worst_ms = 0;
  {
    ReplicaFlapper flapper(cluster.node(1), /*down_ms=*/60, /*up_ms=*/50);
    for (uint64_t op = 0; op < 40 || flapper.flaps() < 2; ++op) {
      ASSERT_LT(op, 2000u) << "the flapper never cycled";
      const uint64_t inode = 1 + op % 16;
      Bytes v{static_cast<uint8_t>(op), static_cast<uint8_t>(op >> 8)};
      for (const Request& req :
           {Request::PutData(inode, 0, v), Request::GetData(inode, 0)}) {
        auto start = std::chrono::steady_clock::now();
        auto resp = (*channel)->Call(req);
        std::chrono::duration<double, std::milli> took =
            std::chrono::steady_clock::now() - start;
        worst_ms = std::max(worst_ms, took.count());
        ASSERT_TRUE(resp.ok()) << resp.status();
        ASSERT_EQ(resp->status, RespStatus::kOk) << OpCodeName(req.op);
        if (req.op == OpCode::kGetData) {
          EXPECT_EQ(resp->payload, v);
        }
      }
    }
  }
  EXPECT_LE(worst_ms, ceiling_ms);
}

TEST(ClusterFailover, WithoutReplicationAndRetriesTheSameKillIsFatal) {
  // The control experiment: replication off (K=1), the round budget
  // (the cluster path's only retry) cut to one attempt. Kill the daemon
  // that owns the file and the read MUST fail — if it ever passes, the
  // positive legs above are passing for the wrong reason (some hidden
  // retry or cache is doing the work instead of the quorum machinery).
  TestCluster::Options opts;
  opts.replication = 1;
  opts.write_quorum = 1;
  opts.read_quorum = 1;
  opts.wal = false;
  opts.tag = "failover_negative";
  TestCluster cluster(opts);
  cluster.Start();
  auto ent = testing::ProvisionOverCluster(&cluster);
  auto engine = testing::MakeEngine(&ent->clock, 7);

  ShardedChannelOptions fragile;
  fragile.quorum_rounds = 1;
  auto channel = cluster.MakeChannel(fragile);
  ASSERT_NE(channel, nullptr);
  auto client = testing::MakeClient(ent.get(), channel.get(), engine.get());
  ASSERT_TRUE(client->Mount().ok());

  core::CreateOptions copts;
  copts.mode = fs::Mode::FromOctal(0644);
  ASSERT_TRUE(client->Create("/doomed", copts).ok());
  Bytes content{1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(client->WriteFile("/doomed", content).ok());
  auto attrs = client->Getattr("/doomed");
  ASSERT_TRUE(attrs.ok());

  uint32_t owner = cluster.ring().PrimaryIndexFor(attrs->inode);
  cluster.node(static_cast<int>(owner))->KillHard();
  client->DropCaches();
  auto read = client->Read("/doomed");
  EXPECT_FALSE(read.ok())
      << "unreplicated read of a dead shard succeeded — the failover "
         "suite would be proving nothing";
}

}  // namespace
}  // namespace sharoes::ssp
