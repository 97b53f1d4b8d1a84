// Shard-aware routing proofs (satellite of the multi-daemon SSP PR):
// a kBatch split across daemons re-stitches in submission order with
// per-sub-op statuses intact, a stale ring self-heals through exactly
// one kWrongShard -> refresh -> retry cycle, the mounted client's
// one-Call-one-logical-round-trip accounting survives the fan-out
// unchanged, and the PR-6 write-stage flush barrier still orders
// staged writes before reads when the sub-ops land on different shards.

#include "core/sharded_channel.h"

#include <dirent.h>
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/retrying_connection.h"
#include "ssp/placement.h"
#include "testing/andrew_client.h"
#include "testing/cluster.h"
#include "testing/restartable.h"

namespace sharoes::core {
namespace {

using ssp::Request;
using ssp::RespStatus;
using ssp::Response;
using testing::TestCluster;

Bytes Payload(uint64_t tag) {
  Bytes payload;
  for (int b = 0; b < 32; ++b) {
    payload.push_back(static_cast<uint8_t>((tag * 37 + b * 11) & 0xFF));
  }
  return payload;
}

TestCluster::Options Unreplicated(const std::string& tag) {
  TestCluster::Options opts;
  opts.replication = 1;
  opts.write_quorum = 1;
  opts.read_quorum = 1;
  opts.wal = false;  // Pure routing tests: no durability needed.
  opts.tag = tag;
  return opts;
}

/// Inodes 1..limit bucketed by owning node, so tests can pick keys that
/// provably live on different daemons.
std::vector<std::vector<uint64_t>> InodesByShard(const TestCluster& cluster,
                                                 uint64_t limit) {
  std::vector<std::vector<uint64_t>> by_shard(
      cluster.config().nodes.size());
  for (uint64_t inode = 1; inode <= limit; ++inode) {
    by_shard[cluster.ring().PrimaryIndexFor(inode)].push_back(inode);
  }
  return by_shard;
}

TEST(ShardRouting, BatchSplitsAndRestitchesInSubmissionOrder) {
  TestCluster cluster(Unreplicated("routing_order"));
  cluster.Start();
  auto channel = cluster.MakeChannel();
  ASSERT_NE(channel, nullptr);

  auto by_shard = InodesByShard(cluster, 64);
  for (const auto& bucket : by_shard) {
    ASSERT_GE(bucket.size(), 4u) << "rebalance the test key range";
  }
  // Interleave inodes shard0, shard1, shard2, shard0, ... so every
  // adjacent pair of sub-ops crosses a shard boundary.
  std::vector<uint64_t> inodes;
  for (size_t round = 0; round < 4; ++round) {
    for (const auto& bucket : by_shard) inodes.push_back(bucket[round]);
  }

  std::vector<Request> puts;
  for (uint64_t inode : inodes) {
    puts.push_back(Request::PutData(inode, 0, Payload(inode)));
  }
  auto put_resp = channel->Call(Request::Batch(std::move(puts)));
  ASSERT_TRUE(put_resp.ok()) << put_resp.status();
  ASSERT_EQ(put_resp->status, RespStatus::kOk);
  ASSERT_EQ(put_resp->batch.size(), inodes.size());
  for (const Response& sub : put_resp->batch) {
    EXPECT_EQ(sub.status, RespStatus::kOk);
  }

  // Mixed-status batch: every present inode's payload must come back in
  // the slot it was asked in, and the absent inodes must answer
  // kNotFound in THEIR slots — a stitch that shuffled positions or
  // collapsed statuses fails loudly here.
  std::vector<Request> gets;
  for (uint64_t inode : inodes) {
    gets.push_back(Request::GetData(inode, 0));
    gets.push_back(Request::GetData(inode + 1000, 0));  // Never written.
  }
  auto get_resp = channel->Call(Request::Batch(std::move(gets)));
  ASSERT_TRUE(get_resp.ok()) << get_resp.status();
  ASSERT_EQ(get_resp->batch.size(), inodes.size() * 2);
  for (size_t i = 0; i < inodes.size(); ++i) {
    const Response& hit = get_resp->batch[2 * i];
    const Response& miss = get_resp->batch[2 * i + 1];
    ASSERT_EQ(hit.status, RespStatus::kOk) << "inode " << inodes[i];
    EXPECT_EQ(hit.payload, Payload(inodes[i])) << "inode " << inodes[i];
    EXPECT_EQ(miss.status, RespStatus::kNotFound)
        << "inode " << inodes[i] + 1000;
  }
}

TEST(ShardRouting, WriteThenReadSameKeyInOneBatch) {
  TestCluster cluster(Unreplicated("routing_rw"));
  cluster.Start();
  auto channel = cluster.MakeChannel();
  ASSERT_NE(channel, nullptr);

  // A put and a get of the same key colocate on one daemon and ship in
  // one sub-batch in submission order, so the get observes the put.
  std::vector<Request> batch;
  for (uint64_t inode = 1; inode <= 12; ++inode) {
    batch.push_back(Request::PutData(inode, 0, Payload(inode)));
    batch.push_back(Request::GetData(inode, 0));
  }
  auto resp = channel->Call(Request::Batch(std::move(batch)));
  ASSERT_TRUE(resp.ok()) << resp.status();
  ASSERT_EQ(resp->batch.size(), 24u);
  for (uint64_t inode = 1; inode <= 12; ++inode) {
    EXPECT_EQ(resp->batch[2 * (inode - 1)].status, RespStatus::kOk);
    const Response& get = resp->batch[2 * (inode - 1) + 1];
    ASSERT_EQ(get.status, RespStatus::kOk) << "inode " << inode;
    EXPECT_EQ(get.payload, Payload(inode));
  }
}

/// A config that maps keys differently from the cluster's real ring —
/// what a client holds after the operator reshuffles placement.
ssp::ClusterConfig StaleConfig(const TestCluster& cluster) {
  ssp::ClusterConfig stale = cluster.config();
  stale.ring_seed ^= 0xBADC0FFEEull;
  return stale;
}

/// An inode the stale ring routes to the wrong daemon.
uint64_t MisroutedInode(const TestCluster& cluster) {
  auto stale_ring = ssp::PlacementRing::Build(StaleConfig(cluster));
  EXPECT_TRUE(stale_ring.ok());
  for (uint64_t inode = 1; inode < 1000; ++inode) {
    if (stale_ring->PrimaryIndexFor(inode) !=
        cluster.ring().PrimaryIndexFor(inode)) {
      return inode;
    }
  }
  ADD_FAILURE() << "no misrouted inode below 1000";
  return 1;
}

TEST(ShardRouting, WrongShardRefreshesPlacementAndRetriesOnce) {
  TestCluster cluster(Unreplicated("routing_refresh"));
  cluster.Start();

  // The channel starts on the stale ring; its refresh source serves the
  // real config, like re-reading the updated file.
  int refresh_calls = 0;
  auto channel = core::ShardedChannel::Create(
      StaleConfig(cluster), cluster.node_factory(),
      core::ShardedChannelOptions{},
      [&cluster, &refresh_calls]() -> Result<ssp::ClusterConfig> {
        ++refresh_calls;
        return cluster.config();
      });
  ASSERT_TRUE(channel.ok()) << channel.status();

  uint64_t inode = MisroutedInode(cluster);
  auto put = (*channel)->Call(Request::PutData(inode, 0, Payload(inode)));
  ASSERT_TRUE(put.ok()) << put.status();
  // Not an error: one kWrongShard, one refresh, one retry, success.
  EXPECT_EQ(put->status, RespStatus::kOk);
  EXPECT_EQ(refresh_calls, 1);
  EXPECT_EQ((*channel)->placement_refreshes(), 1u);

  // The healed ring routes follow-ups directly: no further refreshes.
  auto get = (*channel)->Call(Request::GetData(inode, 0));
  ASSERT_TRUE(get.ok());
  ASSERT_EQ(get->status, RespStatus::kOk);
  EXPECT_EQ(get->payload, Payload(inode));
  EXPECT_EQ(refresh_calls, 1);
}

TEST(ShardRouting, WrongShardWithoutRefreshSurfaces) {
  TestCluster cluster(Unreplicated("routing_norefresh"));
  cluster.Start();
  auto channel =
      core::ShardedChannel::Create(StaleConfig(cluster),
                                   cluster.node_factory(),
                                   core::ShardedChannelOptions{});
  ASSERT_TRUE(channel.ok());

  // No ConfigSource: the channel cannot self-heal, and looping on a
  // permanently disagreeing ring would hang — the status must surface.
  uint64_t inode = MisroutedInode(cluster);
  auto put = (*channel)->Call(Request::PutData(inode, 0, Payload(inode)));
  ASSERT_TRUE(put.ok()) << put.status();
  EXPECT_EQ(put->status, RespStatus::kWrongShard);
  EXPECT_EQ((*channel)->placement_refreshes(), 0u);
}

/// Forwarding channel that counts how many transport channels are alive
/// — a leak detector for connections a placement refresh should drop.
class CountingChannel : public ssp::SspChannel {
 public:
  CountingChannel(std::unique_ptr<ssp::SspChannel> inner,
                  std::atomic<int>* live)
      : inner_(std::move(inner)), live_(live) {
    live_->fetch_add(1);
  }
  ~CountingChannel() override { live_->fetch_sub(1); }
  Result<Response> Call(const Request& req) override {
    return inner_->Call(req);
  }

 private:
  std::unique_ptr<ssp::SspChannel> inner_;
  std::atomic<int>* live_;
};

/// Open descriptors of this process (includes the enumeration dirfd —
/// only deltas are meaningful). -1 where /proc is unavailable.
int OpenFdCount() {
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (readdir(dir) != nullptr) ++count;
  closedir(dir);
  return count;
}

TEST(ShardRouting, EndpointChangeRefreshDropsStaleConnections) {
  // A node's slot dials the endpoint it was created for, so a placement
  // refresh that moves a node id to a different address must DROP that
  // node's old connection: a kept slot would redial the wrong endpoint
  // forever and leak its socket. Start the channel on a config with the
  // two nodes' addresses swapped (ring unchanged — only the dialing is
  // wrong), let kWrongShard trigger the refresh, and count both live
  // channels and process fds.
  TestCluster::Options topts;
  topts.nodes = 2;
  topts.replication = 1;
  topts.write_quorum = 1;
  topts.read_quorum = 1;
  topts.wal = false;
  topts.tag = "routing_conns";
  TestCluster cluster(topts);
  cluster.Start();

  ssp::ClusterConfig swapped = cluster.config();
  std::swap(swapped.nodes[0].port, swapped.nodes[1].port);

  // Endpoint-faithful factory, like the production TCP one: dial the
  // address in the config, not the node id.
  std::atomic<int> live{0};
  auto factory = [&live](const ssp::ClusterNode& node)
      -> Result<std::unique_ptr<ssp::SspChannel>> {
    net::TcpTimeouts timeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                              /*recv_ms=*/5000};
    auto ch = ssp::TcpSspChannel::Connect(node.host, node.port, timeouts);
    if (!ch.ok()) return ch.status();
    return std::unique_ptr<ssp::SspChannel>(
        new CountingChannel(std::move(*ch), &live));
  };
  auto channel = core::ShardedChannel::Create(
      swapped, factory, core::ShardedChannelOptions{},
      [&cluster]() -> Result<ssp::ClusterConfig> { return cluster.config(); });
  ASSERT_TRUE(channel.ok()) << channel.status();

  auto by_shard = InodesByShard(cluster, 64);
  ASSERT_FALSE(by_shard[0].empty());
  ASSERT_FALSE(by_shard[1].empty());
  uint64_t inode0 = by_shard[0][0];
  uint64_t inode1 = by_shard[1][0];

  // Dials "node 0" at node 1's address; the ownership gate answers
  // kWrongShard, the refresh swaps the endpoints back, and the same
  // Call must finish against the right daemon.
  auto put0 = (*channel)->Call(Request::PutData(inode0, 0, Payload(inode0)));
  ASSERT_TRUE(put0.ok()) << put0.status();
  EXPECT_EQ(put0->status, RespStatus::kOk)
      << "the refreshed slot still dialed the stale endpoint";
  EXPECT_EQ((*channel)->placement_refreshes(), 1u);
  auto put1 = (*channel)->Call(Request::PutData(inode1, 0, Payload(inode1)));
  ASSERT_TRUE(put1.ok()) << put1.status();
  EXPECT_EQ(put1->status, RespStatus::kOk);

  // One live transport channel per node — the pre-refresh connection
  // was destroyed (closing its socket), not left behind the new slot.
  EXPECT_EQ(live.load(), 2);

  // Steady state: more traffic on the healed ring reuses the two
  // connections; neither the channel count nor the fd table may grow.
  int fd_baseline = OpenFdCount();
  for (int round = 0; round < 5; ++round) {
    auto get0 = (*channel)->Call(Request::GetData(inode0, 0));
    ASSERT_TRUE(get0.ok());
    EXPECT_EQ(get0->payload, Payload(inode0));
    auto get1 = (*channel)->Call(Request::GetData(inode1, 0));
    ASSERT_TRUE(get1.ok());
    EXPECT_EQ(get1->payload, Payload(inode1));
  }
  EXPECT_EQ((*channel)->placement_refreshes(), 1u);
  EXPECT_EQ(live.load(), 2);
  if (fd_baseline >= 0) {
    EXPECT_LE(OpenFdCount(), fd_baseline) << "fd growth under steady state";
  }
}

TEST(ShardRouting, FanOutCountsAsOneLogicalRoundTrip) {
  // The PR-5/PR-6 RTT CI gates assume one Rpc() == one logical round
  // trip. Run the identical Andrew workload against one daemon and
  // against a 3-shard cluster: the mounted client must report the SAME
  // round-trip count, because a per-shard fan-out happens inside the
  // Call (max-per-shard accounting), not as extra client round trips.
  uint64_t single_trips = 0;
  Bytes single_transcript;
  {
    testing::RestartableDaemon daemon(testing::RestartableDaemon::Options{});
    daemon.Start();
    auto ent = testing::ProvisionOverTcp(&daemon);
    auto engine = testing::MakeEngine(&ent->clock, 7);
    RetryingConnection conn(testing::TcpFactory(&daemon), RetryOptions{});
    auto client = testing::MakeClient(ent.get(), &conn, engine.get());
    ASSERT_TRUE(client->Mount().ok());
    auto transcript = testing::RunAndrewSequence(client.get());
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    single_transcript = std::move(*transcript);
    single_trips = client->rpc_round_trips();
  }

  uint64_t cluster_trips = 0;
  Bytes cluster_transcript;
  {
    TestCluster cluster(Unreplicated("routing_rtt"));
    cluster.Start();
    auto ent = testing::ProvisionOverCluster(&cluster);
    auto engine = testing::MakeEngine(&ent->clock, 7);
    auto channel = cluster.MakeChannel();
    auto client = testing::MakeClient(ent.get(), channel.get(), engine.get());
    ASSERT_TRUE(client->Mount().ok());
    auto transcript = testing::RunAndrewSequence(client.get());
    ASSERT_TRUE(transcript.ok()) << transcript.status();
    cluster_transcript = std::move(*transcript);
    cluster_trips = client->rpc_round_trips();
  }

  EXPECT_EQ(cluster_transcript, single_transcript);
  EXPECT_EQ(cluster_trips, single_trips)
      << "sharding changed the logical round-trip count — the RTT gates "
         "would compare apples to fan-outs";
}

TEST(ShardRouting, HealthyClusterNeverBacksOff) {
  // Round backoff is for faults. On a healthy K=3/W=2/R=2 cluster every
  // quorum assembles in round 0, so no Call may sleep a backoff before
  // returning — a backoff taken before the all-done check would cost
  // every cluster op one round_backoff_ms.
  TestCluster::Options opts;
  opts.tag = "routing_no_backoff";
  TestCluster cluster(opts);
  cluster.Start();
  auto channel = cluster.MakeChannel();
  ASSERT_NE(channel, nullptr);
  constexpr uint64_t kKeys = 30;  // 60 Calls: a put and a get per key.
  for (uint64_t inode = 1; inode <= kKeys; ++inode) {
    auto put = channel->Call(Request::PutData(inode, 0, Payload(inode)));
    ASSERT_TRUE(put.ok()) << put.status();
    ASSERT_EQ(put->status, RespStatus::kOk);
    auto get = channel->Call(Request::GetData(inode, 0));
    ASSERT_TRUE(get.ok()) << get.status();
    ASSERT_EQ(get->status, RespStatus::kOk);
    EXPECT_EQ(get->payload, Payload(inode));
  }
  EXPECT_EQ(channel->quorum_retry_rounds(), 0u);
}

TEST(ShardRouting, WriteStageFlushBarrierHoldsAcrossShards) {
  // The PR-6 write-behind stage delays mutations until a flush point; a
  // read of a dirty object must flush first. With sub-ops fanning out
  // per shard, the barrier must still order every staged write before
  // the read that triggered the flush — cold-read every file back and
  // compare bytes.
  TestCluster cluster(Unreplicated("routing_barrier"));
  cluster.Start();
  auto ent = testing::ProvisionOverCluster(&cluster);
  auto engine = testing::MakeEngine(&ent->clock, 9);
  auto channel = cluster.MakeChannel();
  core::ClientOptions copts;
  copts.default_group = testing::kStaff;
  copts.write_batch_ops = 16;  // Deep staging: flushes span shards.
  core::SharoesClient client(testing::kAlice, ent->alice_key,
                             &ent->identity, channel.get(), engine.get(),
                             copts);
  ASSERT_TRUE(client.Mount().ok());

  for (int i = 0; i < 8; ++i) {
    std::string path = "/f" + std::to_string(i);
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(0644);
    ASSERT_TRUE(client.Create(path, opts).ok());
    ASSERT_TRUE(client.WriteFile(path, Payload(100 + i)).ok());
    // Read-your-write with the batch still warm: the flush barrier must
    // push the staged sub-ops (to however many shards) first.
    auto warm = client.Read(path);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(*warm, Payload(100 + i));
  }
  client.DropCaches();
  for (int i = 0; i < 8; ++i) {
    auto cold = client.Read("/f" + std::to_string(i));
    ASSERT_TRUE(cold.ok()) << cold.status();
    EXPECT_EQ(*cold, Payload(100 + i)) << "file " << i;
  }
}

}  // namespace
}  // namespace sharoes::core
