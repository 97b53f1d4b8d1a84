// Real-socket tests: the SSP served over TCP on loopback, exercised by
// the wire protocol, remote provisioning, and a full SharoesClient.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/client.h"
#include "core/migration.h"
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
  eng_opts.signing_key_bits = 512;
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

}  // namespace
}  // namespace sharoes::ssp
