// Real-socket tests: the SSP served over TCP on loopback, exercised by
// the wire protocol, remote provisioning, and a full SharoesClient.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/migration.h"
#include "ssp/fault_injection.h"
#include "ssp/tcp_service.h"

namespace sharoes::ssp {
namespace {

TEST(TcpStreamTest, FrameRoundTrip) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok()) << channel.status();

  auto resp = (*channel)->Call(Request::PutMetadata(1, 0, {1, 2, 3}));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok());
  resp = (*channel)->Call(Request::GetMetadata(1, 0));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->payload, (Bytes{1, 2, 3}));
  resp = (*channel)->Call(Request::GetMetadata(2, 0));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, RespStatus::kNotFound);
  (*daemon)->Shutdown();
}

TEST(TcpStreamTest, LargePayloadAndBatch) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok());

  Rng rng(3);
  Bytes big = rng.NextBytes(1 << 20);
  auto resp = (*channel)->Call(Request::PutData(9, 0, big));
  ASSERT_TRUE(resp.ok());
  resp = (*channel)->Call(Request::Batch(
      {Request::GetData(9, 0), Request::GetData(9, 1)}));
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->batch.size(), 2u);
  EXPECT_EQ(resp->batch[0].payload, big);
  EXPECT_EQ(resp->batch[1].status, RespStatus::kNotFound);
}

TEST(TcpStreamTest, MultipleConcurrentConnections) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  auto c1 = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  auto c2 = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(c1.ok() && c2.ok());
  ASSERT_TRUE((*c1)->Call(Request::PutMetadata(5, 0, {7})).ok());
  auto resp = (*c2)->Call(Request::GetMetadata(5, 0));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->payload, Bytes{7});
}

TEST(TcpEndToEndTest, RemoteProvisionAndMountOverSockets) {
  // The complete SHAROES flow against a real TCP daemon: provision the
  // enterprise remotely, then run the client filesystem over sockets.
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());

  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.rng_seed = 606;
  crypto::CryptoEngine engine(&clock, eng_opts);

  core::IdentityDirectory identity;
  core::Provisioner::Options popts;
  popts.user_key_bits = 512;
  core::Provisioner prov(&identity, /*server=*/nullptr, &engine, popts);
  auto admin_channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(admin_channel.ok());
  prov.set_remote_channel(admin_channel->get());

  auto alice = prov.CreateUser(100, "alice");
  ASSERT_TRUE(alice.ok());
  auto bob = prov.CreateUser(101, "bob");
  ASSERT_TRUE(bob.ok());

  core::LocalNode root = core::LocalNode::Dir(
      "", 100, fs::kInvalidGroup, fs::Mode::FromOctal(0755));
  root.children.push_back(core::LocalNode::File(
      "hello.txt", 100, fs::kInvalidGroup, fs::Mode::FromOctal(0644),
      ToBytes("over the wire")));
  auto stats = prov.Migrate(root);
  ASSERT_TRUE(stats.ok()) << stats.status();

  // The daemon's store was populated purely through the socket.
  EXPECT_GT(server.store().Stats().object_count, 0u);

  // Mount and operate as bob over his own TCP connection.
  auto bob_channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(bob_channel.ok());
  core::ClientOptions copts;
  core::SharoesClient client(101, bob->priv, &identity, bob_channel->get(),
                             &engine, copts);
  ASSERT_TRUE(client.Mount().ok());
  auto read = client.Read("/hello.txt");
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(ToString(*read), "over the wire");
  // Writes go back over the same socket.
  ASSERT_TRUE(client.Exists("/hello.txt"));
  EXPECT_FALSE(client.Write("/hello.txt", ToBytes("nope")).ok());  // 0644.

  // Alice (owner) writes through her own connection.
  auto alice_channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(alice_channel.ok());
  core::SharoesClient alice_client(100, alice->priv, &identity,
                                   alice_channel->get(), &engine, copts);
  ASSERT_TRUE(alice_client.Mount().ok());
  ASSERT_TRUE(
      alice_client.WriteFile("/hello.txt", ToBytes("updated bytes")).ok());
  client.DropCaches();
  read = client.Read("/hello.txt");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ToString(*read), "updated bytes");

  (*daemon)->Shutdown();
}

TEST(TcpStreamTest, ConcurrentClientStress) {
  // Several threads hammer the daemon simultaneously; the store must end
  // up with every write applied and no reply corruption.
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
      if (!channel.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kOpsPerThread; ++i) {
        fs::InodeNum inode = static_cast<fs::InodeNum>(t) * 1000 + i;
        Bytes payload = {static_cast<uint8_t>(t), static_cast<uint8_t>(i)};
        auto put = (*channel)->Call(Request::PutMetadata(inode, 0, payload));
        if (!put.ok() || !put->ok()) {
          ++failures;
          return;
        }
        auto get = (*channel)->Call(Request::GetMetadata(inode, 0));
        if (!get.ok() || get->payload != payload) {
          ++failures;
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  // All writes landed.
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      EXPECT_TRUE(server.store()
                      .Get(ObjectRef::Metadata(
                          static_cast<fs::InodeNum>(t) * 1000 + i, 0))
                      .has_value());
    }
  }
  (*daemon)->Shutdown();
}

TEST(TcpEndToEndTest, DaemonShutdownIsClean) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  uint16_t port = (*daemon)->port();
  (*daemon)->Shutdown();
  (*daemon)->Shutdown();  // Idempotent.
  // New connections are refused after shutdown.
  auto channel = TcpSspChannel::Connect("127.0.0.1", port);
  EXPECT_FALSE(channel.ok());
}

/// Delays a daemon's first reply by `delay_ms`.
class DelayFirstReply : public FaultInjector {
 public:
  explicit DelayFirstReply(uint32_t delay_ms) : delay_ms_(delay_ms) {}
  FaultAction OnRequest(const Bytes&) override {
    FaultAction action;
    if (!fired_.exchange(true)) {
      action.kind = FaultAction::Kind::kDelayResponse;
      action.delay_ms = delay_ms_;
    }
    return action;
  }

 private:
  const uint32_t delay_ms_;
  std::atomic<bool> fired_{false};
};

/// `n` daemons, daemon i holding metadata object (1, 0) = {i}, as
/// cluster nodes with ids 0 .. n-1.
struct Daemons {
  explicit Daemons(int n) {
    for (int i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<SspServer>());
      servers.back()->Handle(
          Request::PutMetadata(1, 0, Bytes{static_cast<uint8_t>(i)}));
      auto daemon = TcpSspDaemon::Start(servers.back().get(), 0);
      EXPECT_TRUE(daemon.ok()) << daemon.status();
      nodes.push_back({static_cast<uint32_t>(i), "127.0.0.1",
                       (*daemon)->port()});
      daemons.push_back(std::move(*daemon));
    }
  }
  std::vector<std::unique_ptr<SspServer>> servers;
  std::vector<std::unique_ptr<TcpSspDaemon>> daemons;
  std::vector<ClusterNode> nodes;
};

TEST(NodeLinksTest, ExchangeAnswersInAskOrderAndFailsOnlyTheRefusedSlot) {
  DelayFirstReply slow(100);  // Outlives the daemons.
  Daemons d(3);
  // Node 2 is asked first and answers last.
  d.servers[2]->set_fault_injector(&slow);
  // Node 3's port is closed: its dial is refused.
  Daemons gone(1);
  const uint16_t refused = gone.nodes[0].port;
  gone.daemons[0]->Shutdown();
  d.nodes.push_back({3, "127.0.0.1", refused});

  NodeLinks links(d.nodes, net::TcpTimeouts{2000, 2000, 2000});
  const Request get = Request::GetMetadata(1, 0);
  const std::vector<NodeLinks::Ask> asks = {
      {2, &get}, {3, &get}, {0, &get}, {1, &get}};
  auto results = links.Exchange(asks);
  ASSERT_EQ(results.size(), 4u);
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0]->payload, Bytes{2});
  EXPECT_FALSE(results[1].ok());
  ASSERT_TRUE(results[2].ok()) << results[2].status();
  EXPECT_EQ(results[2]->payload, Bytes{0});
  ASSERT_TRUE(results[3].ok()) << results[3].status();
  EXPECT_EQ(results[3]->payload, Bytes{1});
  EXPECT_EQ(links.live_links(), 3u);

  // The next exchange reuses the three live links and redials only the
  // refused node.
  results = links.Exchange(asks);
  EXPECT_TRUE(results[0].ok() && results[2].ok() && results[3].ok());
  EXPECT_FALSE(results[1].ok());
  for (uint32_t id : {0u, 1u, 2u}) EXPECT_EQ(links.dials(id), 1u);
  EXPECT_EQ(links.dials(3), 2u);
  EXPECT_EQ(links.Exchange({{9, &get}})[0].status().code(),
            StatusCode::kNotFound);
}

TEST(NodeLinksTest, ALinkThatMissedTheDeadlineIsClosed) {
  DelayFirstReply stall(300);  // Past the 100 ms deadline.
  Daemons d(2);
  d.servers[0]->set_fault_injector(&stall);
  d.servers[0]->Handle(Request::PutMetadata(2, 0, Bytes{0x22}));
  NodeLinks links(d.nodes, net::TcpTimeouts{2000, 2000, 100});

  const Request first = Request::GetMetadata(1, 0);
  auto results = links.Exchange({{0, &first}, {1, &first}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status().code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(results[1].ok()) << results[1].status();
  EXPECT_EQ(results[1]->payload, Bytes{1});
  EXPECT_EQ(links.live_links(), 1u) << "the late link stayed open";

  // Node 0 is redialed, and the next request gets its own answer, not
  // the late reply to the first.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const Request second = Request::GetMetadata(2, 0);
  results = links.Exchange({{0, &second}});
  ASSERT_TRUE(results[0].ok()) << results[0].status();
  EXPECT_EQ(results[0]->payload, Bytes{0x22});
  EXPECT_EQ(links.dials(0), 2u);
}

}  // namespace
}  // namespace sharoes::ssp
