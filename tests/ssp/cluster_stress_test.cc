// Cluster concurrency under churn (TSan leg of the multi-daemon SSP
// PR): several client threads, each with its own sharded channel, run
// read-your-write traffic against a 3-daemon K=3/W=2/R=2 cluster while
// one replica is SIGKILLed and WAL-recovered in a loop. Every op must
// succeed through quorum failover, and every read must observe the
// thread's own latest write. The traffic runs in whole passes until the
// replica has completed at least two kill/restart cycles, so flaps
// genuinely interleave with live quorum rounds. Runs under
// -DSHAROES_SANITIZE=thread in CI: the interesting bugs here are races
// between the per-node fan-out threads, the flapper's daemon teardown,
// and WAL recovery.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "core/sharded_channel.h"
#include "ssp/message.h"
#include "testing/cluster.h"
#include "testing/stress.h"

namespace sharoes::ssp {
namespace {

using core::ShardedChannelOptions;
using testing::ReplicaFlapper;
using testing::TestCluster;

Bytes TaggedPayload(int thread, int op) {
  // The op number leads, so no two writes to one inode look alike.
  Bytes payload = {static_cast<uint8_t>(op), static_cast<uint8_t>(op >> 8)};
  for (int b = 0; b < 48; ++b) {
    payload.push_back(
        static_cast<uint8_t>((thread * 131 + op * 17 + b * 7) & 0xFF));
  }
  return payload;
}

TEST(ClusterStress, ConcurrentClientsSurviveAFlappingReplica) {
  TestCluster::Options opts;  // 3 nodes, K=3, W=2, R=2, WAL-backed.
  opts.tag = "cluster_stress";
  TestCluster cluster(opts);
  cluster.Start();

  constexpr int kThreads = 4;
  constexpr int kOps = 24;  // One pass.
  constexpr int kMaxPasses = 500;
  constexpr uint64_t kInodesPerThread = 8;
  std::array<int, kThreads> ops_done{};

  ReplicaFlapper flapper(cluster.node(1), /*down_ms=*/40, /*up_ms=*/40);
  testing::StressThreads(kThreads, [&](int t) -> Status {
    // Generous round budget: a thread may catch the victim mid-teardown
    // repeatedly; what is not allowed is giving up.
    ShardedChannelOptions sopts;
    sopts.quorum_rounds = 12;
    sopts.seed = static_cast<uint64_t>(t) + 1;
    auto channel = core::ShardedChannel::Create(
        cluster.config(), cluster.node_factory(), sopts);
    if (!channel.ok()) return channel.status();
    // Disjoint inode ranges per thread: each thread's read-your-write
    // chain is private, so any cross-talk is a routing bug, not a
    // workload artifact.
    const uint64_t base = 1000 + static_cast<uint64_t>(t) * 100;
    int op = 0;
    for (int pass = 0; pass == 0 || flapper.flaps() < 2; ++pass) {
      if (pass == kMaxPasses) return Status::IoError("the flapper stalled");
      for (int end = op + kOps; op < end; ++op) {
        uint64_t inode = base + static_cast<uint64_t>(op) % kInodesPerThread;
        auto put = (*channel)->Call(
            Request::PutData(inode, 0, TaggedPayload(t, op)));
        if (!put.ok()) return put.status();
        if (put->status != RespStatus::kOk) {
          return Status::IoError("put answered " +
                                 std::string(RespStatusName(put->status)));
        }
        auto got = (*channel)->Call(Request::GetData(inode, 0));
        if (!got.ok()) return got.status();
        if (got->status != RespStatus::kOk) {
          return Status::IoError("get answered " +
                                 std::string(RespStatusName(got->status)));
        }
        if (got->payload != TaggedPayload(t, op)) {
          return Status::IoError("thread " + std::to_string(t) + " op " +
                                 std::to_string(op) +
                                 " read someone else's write");
        }
      }
    }
    ops_done[static_cast<size_t>(t)] = op;
    return Status::OK();
  });
  EXPECT_GE(flapper.flaps(), 2);
  flapper.Stop();

  // Post-churn scrub: a full-quorum (R = K) reader must find every
  // thread's final write on the winning side of each quorum, healing
  // whatever the flapped replica missed along the way.
  ClusterConfig scrub = cluster.config();
  scrub.read_quorum = scrub.replication;
  auto reader = cluster.MakeChannelWithConfig(scrub);
  ASSERT_NE(reader, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kInodesPerThread; ++i) {
      uint64_t inode = 1000 + static_cast<uint64_t>(t) * 100 + i;
      // Each thread ran whole passes and kOps is a multiple of
      // kInodesPerThread, so slot i's final write was op
      // (ops_done - kInodesPerThread + i).
      int last_op = ops_done[static_cast<size_t>(t)] -
                    static_cast<int>(kInodesPerThread) + static_cast<int>(i);
      auto got = reader->Call(Request::GetData(inode, 0));
      ASSERT_TRUE(got.ok()) << got.status();
      ASSERT_EQ(got->status, RespStatus::kOk)
          << "thread " << t << " inode " << inode;
      EXPECT_EQ(got->payload, TaggedPayload(t, last_op))
          << "thread " << t << " inode " << inode;
    }
  }
}

}  // namespace
}  // namespace sharoes::ssp
