// The SSP fault-injection layer itself: deterministic schedules, each
// fault kind observable from a real client, and a daemon that keeps
// serving healthy connections while mistreating the faulted one.

#include <gtest/gtest.h>

#include "ssp/fault_injection.h"
#include "ssp/tcp_service.h"
#include "testing/fault.h"

namespace sharoes::ssp {
namespace {

using testing::Fault;
using testing::ScriptedInjector;

std::vector<FaultAction::Kind> Schedule(uint64_t seed, int n) {
  FaultPolicy::Options opts;
  opts.seed = seed;
  opts.fail_prob = 0.2;
  opts.delay_prob = 0.1;
  opts.corrupt_prob = 0.1;
  opts.drop_prob = 0.1;
  FaultPolicy policy(opts);
  std::vector<FaultAction::Kind> kinds;
  for (int i = 0; i < n; ++i) {
    kinds.push_back(policy.OnRequest({}).kind);
  }
  return kinds;
}

TEST(FaultPolicyTest, SeedDeterministicSchedule) {
  auto a = Schedule(7, 500);
  auto b = Schedule(7, 500);
  auto c = Schedule(8, 500);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // Astronomically unlikely to collide over 500 draws.
}

TEST(FaultPolicyTest, CountsMatchSchedule) {
  FaultPolicy::Options opts;
  opts.seed = 3;
  opts.fail_prob = 0.5;
  FaultPolicy policy(opts);
  int failed = 0;
  for (int i = 0; i < 400; ++i) {
    if (policy.OnRequest({}).kind == FaultAction::Kind::kFailRequest) {
      ++failed;
    }
  }
  auto counts = policy.counts();
  EXPECT_EQ(counts.requests, 400u);
  EXPECT_EQ(counts.failed, static_cast<uint64_t>(failed));
  EXPECT_GT(counts.failed, 100u);  // ~200 expected.
  EXPECT_LT(counts.failed, 300u);
  EXPECT_EQ(counts.injected(), counts.failed);
}

TEST(FaultPolicyTest, ZeroProbabilityInjectsNothing) {
  FaultPolicy policy({});
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(policy.OnRequest({}).kind, FaultAction::Kind::kNone);
  }
  EXPECT_EQ(policy.counts().injected(), 0u);
}

TEST(FaultInjectionTcpTest, FailedRequestIsNotExecuted) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  ScriptedInjector injector({Fault(FaultAction::Kind::kFailRequest)});
  server.set_fault_injector(&injector);
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok());

  // First request hits the fault: kError reply, store untouched.
  auto resp = (*channel)->Call(Request::PutMetadata(1, 0, {9}));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, RespStatus::kError);
  EXPECT_FALSE(server.store().Get(ObjectRef::Metadata(1, 0)).has_value());
  // Script exhausted: the connection is healthy and serves normally.
  resp = (*channel)->Call(Request::PutMetadata(1, 0, {9}));
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->ok());
  EXPECT_TRUE(server.store().Get(ObjectRef::Metadata(1, 0)).has_value());
  (*daemon)->Shutdown();
}

TEST(FaultInjectionTcpTest, DroppedConnectionSeversMidFrame) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  ScriptedInjector injector({Fault(FaultAction::Kind::kDropConnection)});
  server.set_fault_injector(&injector);
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok());

  auto resp = (*channel)->Call(Request::GetMetadata(1, 0));
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsIoError()) << resp.status();
  // The daemon as a whole survives: fresh connections serve fine.
  auto fresh = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(fresh.ok());
  auto ok_resp = (*fresh)->Call(Request::GetMetadata(1, 0));
  ASSERT_TRUE(ok_resp.ok()) << ok_resp.status();
  EXPECT_EQ(ok_resp->status, RespStatus::kNotFound);
  (*daemon)->Shutdown();
}

TEST(FaultInjectionTcpTest, CorruptedPayloadStillParsesButDiffers) {
  SspServer server;
  server.store().Put(ObjectRef::Data(5, 0), {10, 20, 30, 40});
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  FaultAction corrupt = Fault(FaultAction::Kind::kCorruptResponse);
  corrupt.corrupt_mask = 0xFF;
  ScriptedInjector injector({corrupt});
  server.set_fault_injector(&injector);
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok());

  // The transport accepts the tampered reply (framing intact, payload
  // wrong) — exactly the case only the integrity layer can catch, which
  // tests/core/client_fault_test.cc asserts end to end.
  auto resp = (*channel)->Call(Request::GetData(5, 0));
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->ok());
  EXPECT_NE(resp->payload, (Bytes{10, 20, 30, 40}));
  EXPECT_EQ(resp->payload.size(), 4u);
  (*daemon)->Shutdown();
}

TEST(FaultInjectionTcpTest, DelayInjectsLatencyOnly) {
  SspServer server;
  server.store().Put(ObjectRef::Data(5, 0), {1});
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  FaultAction delay = Fault(FaultAction::Kind::kDelayResponse);
  delay.delay_ms = 30;
  ScriptedInjector injector({delay});
  server.set_fault_injector(&injector);
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok());
  auto resp = (*channel)->Call(Request::GetData(5, 0));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->payload, Bytes{1});  // Slow, not wrong.
  (*daemon)->Shutdown();
}

TEST(FaultInjectionTcpTest, DelayBeyondRecvDeadlineSurfacesAsDeadline) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  FaultAction delay = Fault(FaultAction::Kind::kDelayResponse);
  delay.delay_ms = 500;
  ScriptedInjector injector({delay});
  server.set_fault_injector(&injector);
  net::TcpTimeouts timeouts;
  timeouts.recv_ms = 50;
  auto channel =
      TcpSspChannel::Connect("127.0.0.1", (*daemon)->port(), timeouts);
  ASSERT_TRUE(channel.ok());
  auto resp = (*channel)->Call(Request::GetMetadata(1, 0));
  ASSERT_FALSE(resp.ok());
  EXPECT_TRUE(resp.status().IsDeadlineExceeded()) << resp.status();
  (*daemon)->Shutdown();
}

TEST(FaultInjectionTcpTest, FaultedConnectionDoesNotPoisonOthers) {
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok());
  // Alternate drop / serve so the victim and the healthy client
  // interleave against the same injector.
  std::vector<FaultAction> script;
  for (int i = 0; i < 4; ++i) {
    script.push_back(Fault(FaultAction::Kind::kDropConnection));
    script.push_back({});
  }
  ScriptedInjector injector(std::move(script));
  server.set_fault_injector(&injector);

  for (int round = 0; round < 4; ++round) {
    auto victim = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
    ASSERT_TRUE(victim.ok());
    EXPECT_FALSE((*victim)->Call(Request::GetMetadata(1, 0)).ok());
    auto healthy = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
    ASSERT_TRUE(healthy.ok());
    auto resp = (*healthy)->Call(
        Request::PutMetadata(100 + round, 0, {static_cast<uint8_t>(round)}));
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_TRUE(resp->ok());
  }
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(server.store().Get(
        ObjectRef::Metadata(100 + round, 0)).has_value());
  }
  (*daemon)->Shutdown();
}

TEST(FaultInjectionServerTest, InProcessHookFailsAndCorrupts) {
  // The SspServer-level hook: same injector interface, no sockets.
  SspServer server;
  server.store().Put(ObjectRef::Data(7, 0), {1, 2, 3, 4, 5, 6});
  FaultAction corrupt = Fault(FaultAction::Kind::kCorruptResponse);
  corrupt.corrupt_mask = 0x80;
  ScriptedInjector injector(
      {Fault(FaultAction::Kind::kFailRequest),
       // In-process, a "dropped connection" degrades to a failed request.
       Fault(FaultAction::Kind::kDropConnection), corrupt});
  server.set_fault_injector(&injector);

  auto wire = [&](const Request& req) {
    auto resp = Response::Deserialize(server.HandleWire(req.Serialize()));
    EXPECT_TRUE(resp.ok());
    return *resp;
  };
  EXPECT_EQ(wire(Request::GetData(7, 0)).status, RespStatus::kError);
  EXPECT_EQ(wire(Request::GetData(7, 0)).status, RespStatus::kError);
  Response tampered = wire(Request::GetData(7, 0));
  EXPECT_TRUE(tampered.ok());
  EXPECT_NE(tampered.payload, (Bytes{1, 2, 3, 4, 5, 6}));
  // Script exhausted → untouched.
  EXPECT_EQ(wire(Request::GetData(7, 0)).payload, (Bytes{1, 2, 3, 4, 5, 6}));
  server.set_fault_injector(nullptr);
}

TEST(CorruptResponsePayloadTest, FindsFirstPayloadInBatch) {
  // A batch response whose first sub-response has an empty payload: the
  // walker must descend past empty headers and hit real payload bytes.
  Response resp;
  resp.status = RespStatus::kOk;
  resp.batch.push_back(Response::Ok());
  resp.batch.push_back(Response::Ok({0xAA, 0xBB, 0xCC}));
  Bytes wire = resp.Serialize();
  Bytes original = wire;
  ASSERT_TRUE(CorruptResponsePayload(&wire, 0x01));
  EXPECT_NE(wire, original);
  auto reparsed = Response::Deserialize(wire);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();  // Framing intact.
  EXPECT_NE(reparsed->batch[1].payload, (Bytes{0xAA, 0xBB, 0xCC}));
  EXPECT_EQ(reparsed->batch[0].payload, Bytes{});
}

TEST(CorruptResponsePayloadTest, AllEmptyPayloadsLeftUntouched) {
  Response resp = Response::Ok();
  Bytes wire = resp.Serialize();
  Bytes original = wire;
  EXPECT_FALSE(CorruptResponsePayload(&wire, 0xFF));
  EXPECT_EQ(wire, original);
}

}  // namespace
}  // namespace sharoes::ssp
