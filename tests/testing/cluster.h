// Multi-daemon SSP cluster harness: N RestartableDaemons, a placement
// ring built from their actual (ephemeral) ports, and sharded channels
// over it — the in-process stand-in for `sharoes_sspd --cluster` × N
// that the sharding, failover and cluster-stress suites drive.
//
// Lifecycle matches the single-daemon harness: daemons run per-node
// WALs (sync=always, SIGKILL-faithful — see testing/restartable.h), a
// KillHard() is a SIGKILL, and a Restart() recovers the node entirely
// from its log and re-arms shard ownership, because the ring outlives
// every server incarnation (it lives here). RestartableDaemon rebinds
// the same port across restarts, so the config stays valid for the
// whole test.

#ifndef SHAROES_TESTS_TESTING_CLUSTER_H_
#define SHAROES_TESTS_TESTING_CLUSTER_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_channel.h"
#include "ssp/placement.h"
#include "ssp/scrub.h"
#include "ssp/tcp_service.h"
#include "testing/andrew_client.h"
#include "testing/restartable.h"

namespace sharoes::testing {

class TestCluster {
 public:
  struct Options {
    int nodes = 3;
    uint32_t replication = 3;
    uint32_t write_quorum = 2;
    uint32_t read_quorum = 2;
    uint32_t virtual_nodes = 64;
    /// Per-node durable WAL (sync=always). Off = in-memory only: a
    /// KillHard then loses that replica's contents, which is exactly
    /// what a quorum read must survive.
    bool wal = true;
    /// Cluster delete semantics: versioned tombstones on every node,
    /// like the real `sharoes_sspd --cluster`. Off reproduces the
    /// pre-tombstone seed behaviour (deletes erase; a recovered stale
    /// replica can resurrect them) — the negative-control knob.
    bool tombstones = true;
    std::string tag = "cluster";
  };

  explicit TestCluster(Options opts) : opts_(std::move(opts)) {
    base_dir_ = ::testing::TempDir() + "sharoes_" + opts_.tag + "_" +
                std::to_string(::getpid());
    std::string cmd = "rm -rf " + base_dir_;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    cmd = "mkdir -p " + base_dir_;
    EXPECT_EQ(std::system(cmd.c_str()), 0);
  }

  ~TestCluster() {
    for (auto& d : daemons_) d->Kill();
  }

  /// Starts every daemon, derives the cluster config from the ports the
  /// kernel handed them, and arms shard ownership on each. Must be
  /// called (once) before config()/ring()/MakeChannel().
  void Start() {
    ASSERT_TRUE(daemons_.empty());
    for (int i = 0; i < opts_.nodes; ++i) {
      RestartableDaemon::Options dopts;
      if (opts_.wal) {
        dopts.wal_dir = base_dir_ + "/wal" + std::to_string(i);
      }
      dopts.tombstones = opts_.tombstones;
      daemons_.push_back(std::make_unique<RestartableDaemon>(dopts));
      daemons_.back()->Start();
    }
    ssp::ClusterConfig config;
    config.replication = opts_.replication;
    config.write_quorum = opts_.write_quorum;
    config.read_quorum = opts_.read_quorum;
    config.virtual_nodes = opts_.virtual_nodes;
    for (int i = 0; i < opts_.nodes; ++i) {
      config.nodes.push_back({static_cast<uint32_t>(i), "127.0.0.1",
                              daemons_[static_cast<size_t>(i)]->port()});
    }
    auto ring = ssp::PlacementRing::Build(std::move(config));
    ASSERT_TRUE(ring.ok()) << ring.status();
    ring_ = std::make_unique<ssp::PlacementRing>(std::move(*ring));
    for (int i = 0; i < opts_.nodes; ++i) {
      daemons_[static_cast<size_t>(i)]->set_placement(
          ring_.get(), static_cast<uint32_t>(i));
    }
  }

  const ssp::ClusterConfig& config() const { return ring_->config(); }
  const ssp::PlacementRing& ring() const { return *ring_; }
  int size() const { return opts_.nodes; }
  RestartableDaemon* node(int i) {
    return daemons_[static_cast<size_t>(i)].get();
  }

  /// The NodeFactory for this cluster: connections resolve the daemon's
  /// port at (re)connect time, so a channel follows a node through
  /// restarts just like it would re-dial a real address.
  core::ShardedChannel::NodeFactory node_factory() {
    return [this](const ssp::ClusterNode& node) {
      return TcpFactory(daemons_[node.id].get())();
    };
  }

  /// A sharded channel over this cluster. The default config is the
  /// cluster's own; pass an override to read/write with different
  /// quorums (e.g. read_quorum = K turns a read pass into a full
  /// anti-entropy scrub). Overrides must keep the same node ids.
  std::unique_ptr<core::ShardedChannel> MakeChannel(
      core::ShardedChannelOptions sopts = {}) {
    return MakeChannelWithConfig(config(), sopts);
  }
  std::unique_ptr<core::ShardedChannel> MakeChannelWithConfig(
      ssp::ClusterConfig config, core::ShardedChannelOptions sopts = {}) {
    if (sopts.seed == 0) sopts.seed = 1;  // Deterministic backoff jitter.
    auto channel = core::ShardedChannel::Create(std::move(config),
                                                node_factory(), sopts);
    EXPECT_TRUE(channel.ok()) << channel.status();
    return channel.ok() ? std::move(*channel) : nullptr;
  }

  /// An anti-entropy scrubber for node i's current server incarnation,
  /// dialing its peers over TCP like the real daemon's. Bound to the
  /// live SspServer: create it AFTER node i's last restart and drop it
  /// before the next one (a restart re-creates the server object).
  std::unique_ptr<ssp::Scrubber> MakeScrubber(int i) {
    return std::make_unique<ssp::Scrubber>(
        node(i)->server(), ring_.get(), static_cast<uint32_t>(i),
        [](const ssp::ClusterNode& n)
            -> Result<std::unique_ptr<ssp::SspChannel>> {
          net::TcpTimeouts timeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                                    /*recv_ms=*/5000};
          auto ch = ssp::TcpSspChannel::Connect(n.host, n.port, timeouts);
          if (!ch.ok()) return ch.status();
          return std::unique_ptr<ssp::SspChannel>(std::move(*ch));
        });
  }

 private:
  Options opts_;
  std::string base_dir_;
  std::vector<std::unique_ptr<RestartableDaemon>> daemons_;
  std::unique_ptr<ssp::PlacementRing> ring_;
};

/// ProvisionOverTcp's cluster twin: the enterprise provisions through a
/// sharded channel, so every superblock / user table / root inode lands
/// on the replicas that own it (direct single-daemon provisioning would
/// bounce off kWrongShard).
inline std::unique_ptr<Enterprise> ProvisionOverCluster(
    TestCluster* cluster) {
  auto ent = std::make_unique<Enterprise>();
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.signing_key_bits = 512;
  eng_opts.rng_seed = 4242;
  ent->engine = std::make_unique<crypto::CryptoEngine>(&ent->clock, eng_opts);

  core::Provisioner::Options popts;
  popts.user_key_bits = 512;
  core::Provisioner prov(&ent->identity, /*server=*/nullptr,
                         ent->engine.get(), popts);
  auto admin = cluster->MakeChannel();
  prov.set_remote_channel(admin.get());

  auto alice = prov.CreateUser(kAlice, "alice");
  EXPECT_TRUE(alice.ok());
  ent->alice_key = alice->priv;
  EXPECT_TRUE(prov.CreateGroup(kStaff, "staff", {kAlice}).ok());
  core::LocalNode root = core::LocalNode::Dir("", kAlice, kStaff,
                                              fs::Mode::FromOctal(0755));
  EXPECT_TRUE(prov.Migrate(root).ok());
  return ent;
}

}  // namespace sharoes::testing

#endif  // SHAROES_TESTS_TESTING_CLUSTER_H_
