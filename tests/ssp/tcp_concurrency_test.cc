// Concurrency tests for the TCP serving path: many real socket clients
// hammering mixed put/get/delete in parallel (no daemon-level serial
// lock anymore), daemon shutdown under load, and a start/stop churn
// regression for the Shutdown() connection-tracking race. Run under
// -DSHAROES_SANITIZE=thread to prove the path race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "ssp/tcp_service.h"
#include "testing/stress.h"
#include "util/random.h"

namespace sharoes::ssp {
namespace {

using testing::RunThreads;
using testing::StressThreads;

constexpr int kClients = 8;

Status StatusFromResponse(const Result<Response>& resp,
                          const std::string& what) {
  if (!resp.ok()) return resp.status();
  if (resp->status == RespStatus::kBadRequest) {
    return Status::Internal(what + ": server said bad request");
  }
  return Status::OK();
}

TEST(TcpConcurrencyTest, ParallelClientsMixedOps) {
  // 8 real TCP clients, each over its own socket, running a mixed
  // put/get/delete workload: disjoint keys verified exactly, plus a
  // shared hot key range that races by design.
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  constexpr int kOps = 120;

  StressThreads(kClients, [&](int t) -> Status {
    auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
    if (!channel.ok()) return channel.status();
    Rng rng(static_cast<uint64_t>(42 + t));
    for (int i = 0; i < kOps; ++i) {
      // Private key space: exact readback must hold.
      fs::InodeNum mine = static_cast<fs::InodeNum>(t) * 100000 + i;
      Bytes payload = {static_cast<uint8_t>(t), static_cast<uint8_t>(i)};
      auto put = (*channel)->Call(Request::PutMetadata(mine, 0, payload));
      SHAROES_RETURN_IF_ERROR(StatusFromResponse(put, "put"));
      auto get = (*channel)->Call(Request::GetMetadata(mine, 0));
      if (!get.ok()) return get.status();
      if (get->payload != payload) {
        return Status::Internal("readback mismatch on private key");
      }
      // Shared hot keys: contended traffic across all five verbs.
      fs::InodeNum hot = rng.NextU64() % 8;
      switch (rng.NextU64() % 5) {
        case 0: {
          auto r = (*channel)->Call(
              Request::PutData(hot, 0, {static_cast<uint8_t>(t)}));
          SHAROES_RETURN_IF_ERROR(StatusFromResponse(r, "hot put"));
          break;
        }
        case 1: {
          auto r = (*channel)->Call(Request::GetData(hot, 0));
          if (!r.ok()) return r.status();
          break;
        }
        case 2: {
          auto r = (*channel)->Call(Request::DeleteInodeData(hot));
          SHAROES_RETURN_IF_ERROR(StatusFromResponse(r, "hot delete"));
          break;
        }
        case 3: {
          auto r = (*channel)->Call(Request::PutSuperblock(
              static_cast<uint32_t>(hot), {static_cast<uint8_t>(i)}));
          SHAROES_RETURN_IF_ERROR(StatusFromResponse(r, "hot sb"));
          break;
        }
        case 4: {
          auto r = (*channel)->Call(Request::Batch(
              {Request::GetMetadata(hot, 0), Request::GetData(hot, 0)}));
          if (!r.ok()) return r.status();
          break;
        }
      }
    }
    return Status::OK();
  });

  // Every private write landed.
  for (int t = 0; t < kClients; ++t) {
    for (int i = 0; i < kOps; ++i) {
      EXPECT_TRUE(server.store()
                      .Get(ObjectRef::Metadata(
                          static_cast<fs::InodeNum>(t) * 100000 + i, 0))
                      .has_value());
    }
  }
  (*daemon)->Shutdown();
}

TEST(TcpConcurrencyTest, RequestsExecuteInParallel) {
  // With the serve mutex gone, two clients must be able to have requests
  // in flight simultaneously. Drive enough concurrent large batches that
  // serialized execution would be glaringly slower; the real assertion is
  // that concurrent in-flight requests are handled (no deadlock, no
  // cross-talk between connection threads).
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  Rng rng(7);
  Bytes big = rng.NextBytes(1 << 18);
  StressThreads(kClients, [&](int t) -> Status {
    auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
    if (!channel.ok()) return channel.status();
    for (int i = 0; i < 20; ++i) {
      fs::InodeNum inode = static_cast<fs::InodeNum>(t) + 1;
      auto put = (*channel)->Call(Request::PutData(inode, 0, big));
      SHAROES_RETURN_IF_ERROR(StatusFromResponse(put, "big put"));
      auto get = (*channel)->Call(Request::GetData(inode, 0));
      if (!get.ok()) return get.status();
      if (get->payload != big) return Status::Internal("big readback torn");
    }
    return Status::OK();
  });
  (*daemon)->Shutdown();
}

TEST(TcpConcurrencyTest, ShutdownUnderLoad) {
  // Clients keep hammering while the daemon shuts down mid-traffic. The
  // daemon must unblock every connection thread and join cleanly; client
  // calls may fail with IO errors (connection reset) but must not hang
  // or crash.
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status();
  std::atomic<int> ops_done{0};

  auto statuses = RunThreads(kClients + 1, [&](int t) -> Status {
    if (t == kClients) {
      // Shutdown thread: wait until traffic is flowing, then pull the rug.
      while (ops_done.load() < kClients) std::this_thread::yield();
      (*daemon)->Shutdown();
      return Status::OK();
    }
    auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
    if (!channel.ok()) return Status::OK();  // Lost the race to shutdown.
    for (int i = 0; i < 1000; ++i) {
      fs::InodeNum inode = static_cast<fs::InodeNum>(t) * 1000 + i;
      auto resp = (*channel)->Call(
          Request::PutMetadata(inode, 0, {static_cast<uint8_t>(t)}));
      ops_done.fetch_add(1);
      if (!resp.ok()) return Status::OK();  // Daemon went away: expected.
    }
    return Status::OK();
  });
  testing::ExpectAllOk(statuses);
  // After Shutdown returns, all connection threads have been joined; a
  // fresh connect attempt is refused.
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  EXPECT_FALSE(channel.ok());
}

TEST(TcpConcurrencyTest, StartStopChurn) {
  // Regression for the Shutdown()/AcceptLoop connection-tracking race:
  // start and stop the daemon 100x, sometimes with a client mid-flight,
  // so shutdown constantly races accept and connection teardown.
  SspServer server;
  for (int round = 0; round < 100; ++round) {
    auto daemon = TcpSspDaemon::Start(&server, 0);
    ASSERT_TRUE(daemon.ok()) << "round " << round << ": " << daemon.status();
    if (round % 2 == 0) {
      auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
      if (channel.ok()) {
        auto resp = (*channel)->Call(Request::PutMetadata(
            static_cast<fs::InodeNum>(round) + 1, 0, {1}));
        EXPECT_TRUE(resp.ok()) << "round " << round;
      }
    }
    (*daemon)->Shutdown();
  }
  // Daemon object destruction after explicit Shutdown is also clean
  // (covered implicitly every round by unique_ptr teardown).
}

TEST(TcpConcurrencyTest, ChurnWithConcurrentClients) {
  // Harder churn: each round, a pack of clients connects and issues a few
  // requests while the main thread shuts the daemon down underneath them.
  SspServer server;
  for (int round = 0; round < 20; ++round) {
    auto daemon = TcpSspDaemon::Start(&server, 0);
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    uint16_t port = (*daemon)->port();
    auto statuses = RunThreads(5, [&](int t) -> Status {
      if (t == 4) {
        // Shuts the daemon down while the other four are connecting /
        // mid-request (the barrier released everyone together).
        (*daemon)->Shutdown();
        return Status::OK();
      }
      auto channel = TcpSspChannel::Connect("127.0.0.1", port);
      if (!channel.ok()) return Status::OK();
      for (int i = 0; i < 50; ++i) {
        auto resp = (*channel)->Call(Request::GetMetadata(
            static_cast<fs::InodeNum>(t) + 1, 0));
        if (!resp.ok()) return Status::OK();  // Shutdown hit us: fine.
      }
      return Status::OK();
    });
    testing::ExpectAllOk(statuses);
  }
}

}  // namespace
}  // namespace sharoes::ssp
