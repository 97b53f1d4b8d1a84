// Wire compatibility of the trace extension and the kGetStats admin RPC.
//
// The extension must be invisible when unused (byte-identical to the
// pre-extension encoding — a non-tracing client is indistinguishable
// from a legacy one), skippable when unknown (an old server ignores a
// new client's future extension tags), and strict about garbage (the
// protocol's trailing-bytes rejection survives).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/retrying_connection.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "ssp/fault_injection.h"
#include "ssp/message.h"
#include "ssp/ssp_server.h"
#include "ssp/tcp_service.h"
#include "util/binary_io.h"

namespace sharoes::ssp {
namespace {

/// The JSON rendering of a kGetStats reply (a binary RegistrySnapshot),
/// the document `sharoes_cli stats` prints.
std::string StatsJson(const Bytes& payload) {
  auto snap = obs::RegistrySnapshot::DeserializeBinary(payload);
  EXPECT_TRUE(snap.ok()) << snap.status();
  return snap.ok() ? snap->ToJson() : std::string();
}

/// The pre-extension (legacy) encoding of a request, built by hand from
/// the documented wire layout. If this ever disagrees with Serialize()
/// for untraced requests, old servers will reject new clients.
Bytes LegacyEncode(const Request& req) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(req.op));
  w.PutU64(req.inode);
  w.PutU64(req.selector);
  w.PutU32(req.user);
  w.PutU32(req.group);
  w.PutU32(req.block);
  w.PutBytes(req.payload);
  w.PutU32(static_cast<uint32_t>(req.batch.size()));
  return w.Take();
}

TEST(TraceWireTest, UntracedRequestIsByteIdenticalToLegacyEncoding) {
  Request req = Request::PutData(42, 3, ToBytes("block-bytes"));
  ASSERT_EQ(req.trace_id, 0u);
  EXPECT_EQ(req.Serialize(), LegacyEncode(req));
}

TEST(TraceWireTest, TraceRoundTripsThroughTheWire) {
  Request req = Request::GetData(7, 1);
  Bytes wire = req.SerializeWithTrace(0xDEADBEEFCAFEF00Dull, 3);
  auto parsed = Request::Deserialize(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->op, OpCode::kGetData);
  EXPECT_EQ(parsed->inode, 7u);
  EXPECT_EQ(parsed->trace_id, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(parsed->attempt, 3u);
  // Re-serializing a parsed traced request reproduces the frame.
  EXPECT_EQ(parsed->Serialize(), wire);
}

TEST(TraceWireTest, ZeroTraceSerializesWithoutExtension) {
  Request req = Request::GetData(7, 1);
  EXPECT_EQ(req.SerializeWithTrace(0, 5), LegacyEncode(req));
}

TEST(TraceWireTest, UnknownExtensionTagIsSkipped) {
  // A future client appends an extension tag this server has never heard
  // of; the frame must still parse (and any known entries still apply).
  Request req = Request::GetMetadata(9, 2);
  BinaryWriter w;
  w.PutRaw(LegacyEncode(req).data(), LegacyEncode(req).size());
  w.PutU32(kRequestExtensionMagic);
  w.PutU8(2);                   // Two entries.
  w.PutU8(0x7E);                // Unknown tag...
  w.PutU8(3);                   // ...3-byte payload.
  w.PutU8(1); w.PutU8(2); w.PutU8(3);
  w.PutU8(kExtensionTagTrace);  // Known trace entry after it.
  w.PutU8(9);
  w.PutU64(0x1234);
  w.PutU8(1);
  auto parsed = Request::Deserialize(w.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, 0x1234u);
  EXPECT_EQ(parsed->attempt, 1u);
}

TEST(TraceWireTest, KnownTagWithUnexpectedLengthIsSkipped) {
  // A longer (future) trace entry: skipped wholesale, not misparsed.
  Request req = Request::GetMetadata(9, 2);
  BinaryWriter w;
  w.PutRaw(LegacyEncode(req).data(), LegacyEncode(req).size());
  w.PutU32(kRequestExtensionMagic);
  w.PutU8(1);
  w.PutU8(kExtensionTagTrace);
  w.PutU8(11);  // Not the 9 bytes this version knows.
  for (int i = 0; i < 11; ++i) w.PutU8(0xAA);
  auto parsed = Request::Deserialize(w.Take());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, 0u);  // Entry ignored.
}

TEST(TraceWireTest, TrailingGarbageIsStillRejected) {
  Request req = Request::GetData(7, 1);
  Bytes wire = req.Serialize();
  wire.push_back(0xEE);  // Not a valid extension block.
  EXPECT_FALSE(Request::Deserialize(wire).ok());
}

TEST(TraceWireTest, TruncatedExtensionIsRejected) {
  Request req = Request::GetData(7, 1);
  Bytes wire = req.SerializeWithTrace(0x99, 0);
  wire.pop_back();  // Cut the extension mid-entry.
  EXPECT_FALSE(Request::Deserialize(wire).ok());
}

TEST(TraceWireTest, BatchSubRequestsCarryNoExtension) {
  Request batch = Request::Batch(
      {Request::GetData(1, 0), Request::PutData(2, 0, ToBytes("x"))});
  Bytes wire = batch.SerializeWithTrace(0x77, 0);
  auto parsed = Request::Deserialize(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_id, 0x77u);
  ASSERT_EQ(parsed->batch.size(), 2u);
  for (const Request& sub : parsed->batch) {
    EXPECT_EQ(sub.trace_id, 0u);  // Top-level frame context covers them.
  }
}

TEST(TraceWireTest, ServerExecutesTracedRequestsNormally) {
  // A trace-stamped put/get pair behaves exactly like untraced ones.
  SspServer server;
  Request put = Request::PutData(5, 0, ToBytes("payload"));
  Bytes put_wire = put.SerializeWithTrace(obs::NextTraceId(), 0);
  auto put_resp = Response::Deserialize(server.HandleWire(put_wire));
  ASSERT_TRUE(put_resp.ok());
  EXPECT_TRUE(put_resp->ok());
  Bytes get_wire =
      Request::GetData(5, 0).SerializeWithTrace(obs::NextTraceId(), 2);
  auto get_resp = Response::Deserialize(server.HandleWire(get_wire));
  ASSERT_TRUE(get_resp.ok());
  EXPECT_EQ(get_resp->payload, ToBytes("payload"));
}

TEST(GetStatsTest, ReturnsBinaryRegistrySnapshot) {
  SspServer server;
  // Serve something first so the snapshot has opcode counters.
  server.HandleWire(Request::PutData(1, 0, ToBytes("d")).Serialize());
  Response resp = server.Handle(Request::GetStats());
  ASSERT_TRUE(resp.ok());
  auto snap = obs::RegistrySnapshot::DeserializeBinary(resp.payload);
  ASSERT_TRUE(snap.ok()) << snap.status();
  EXPECT_GE(snap->counters.at("ssp.requests.PutData"), 1u);
  EXPECT_GE(snap->histograms.at("ssp.service_us.PutData").count, 1u);
  EXPECT_GE(snap->gauges.at("ssp.store.objects"), 1u);
  std::string json = snap->ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"ssp.requests.PutData\""), std::string::npos);
  EXPECT_NE(json.find("\"ssp.service_us.PutData\""), std::string::npos);
  EXPECT_NE(json.find("\"ssp.store.objects\""), std::string::npos);
}

TEST(GetStatsTest, DoesNotTouchTheStore) {
  SspServer server;
  server.HandleWire(Request::PutData(1, 0, ToBytes("d")).Serialize());
  auto before = server.store().Stats();
  (void)server.Handle(Request::GetStats());
  auto after = server.store().Stats();
  EXPECT_EQ(before.object_count, after.object_count);
  EXPECT_EQ(before.total_bytes(), after.total_bytes());
}

TEST(GetStatsTest, PrefixFilterRestrictsTheSnapshot) {
  // kGetStats carries an optional prefix in its payload: the returned
  // document is restricted to metrics whose name starts with it (the
  // cheap periodic-scrape path: `sharoes_cli stats --prefix ssp.wal`).
  SspServer server;
  server.HandleWire(Request::PutData(1, 0, ToBytes("d")).Serialize());
  Response resp = server.Handle(Request::GetStats("ssp.requests"));
  ASSERT_TRUE(resp.ok());
  std::string json = StatsJson(resp.payload);
  EXPECT_NE(json.find("\"ssp.requests.PutData\""), std::string::npos);
  EXPECT_EQ(json.find("\"ssp.store.objects\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"ssp.service_us.PutData\""), std::string::npos)
      << json;
  // An unmatched prefix still yields a valid (empty) document.
  Response none = server.Handle(Request::GetStats("no.such.prefix"));
  ASSERT_TRUE(none.ok());
  std::string empty_json = StatsJson(none.payload);
  EXPECT_EQ(empty_json, "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

TEST(GetTracesTest, DoesNotTouchTheStore) {
  // kGetTraces joins kGetStats as an opcode operators fire at a live
  // production daemon, so it must be observably read-only too.
  SspServer server;
  server.HandleWire(Request::PutData(1, 0, ToBytes("d")).Serialize());
  auto before = server.store().Stats();
  Response resp = server.Handle(Request::GetTraces());
  ASSERT_TRUE(resp.ok());
  auto after = server.store().Stats();
  EXPECT_EQ(before.object_count, after.object_count);
  EXPECT_EQ(before.total_bytes(), after.total_bytes());
}

TEST(GetTracesTest, ReturnsTheSpanCollectorJson) {
  SspServer server;
  obs::SpanCollector::Global().Reset();
  uint64_t prev = obs::SlowRequestThresholdUs();
  obs::SetSlowRequestThresholdUs(1);
  obs::SpanRecord rec;
  rec.trace_id = 0x5151;
  rec.op = "GetData";
  rec.kind = 'S';
  rec.total_us = 1234;
  obs::SpanCollector::Global().Publish(rec);
  Response resp = server.Handle(Request::GetTraces());
  obs::SetSlowRequestThresholdUs(prev);
  obs::SpanCollector::Global().Reset();
  ASSERT_TRUE(resp.ok());
  std::string json(resp.payload.begin(), resp.payload.end());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"slow_threshold_us\":1"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"GetData\""), std::string::npos);
  EXPECT_NE(json.find(obs::TraceIdHex(0x5151)), std::string::npos);
}

TEST(GetTracesTest, IsIdempotentButNotBatchable) {
  EXPECT_FALSE(IsMutatingOp(OpCode::kGetTraces));   // Never WAL-logged...
  EXPECT_FALSE(IsBatchableOp(OpCode::kGetTraces));  // ...and no batch rides.
}

TEST(GetTracesTest, BatchRejectionLogJoinsTheEnvelopeTrace) {
  // Satellite of the trace-propagation contract: a kBatch sub-op
  // rejection must log under the *envelope's* trace id, so the server
  // log line joins the client op that sent the bad batch.
  SspServer server;
  std::vector<std::string> lines;
  obs::SetLogSinkForTest([&](const std::string& line) {
    lines.push_back(line);
  });
  uint64_t trace = obs::NextTraceId();
  Request batch = Request::Batch({Request::GetTraces()});
  auto resp = Response::Deserialize(
      server.HandleWire(batch.SerializeWithTrace(trace, 4)));
  obs::SetLogSinkForTest(nullptr);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->batch.size(), 1u);
  EXPECT_FALSE(resp->batch[0].ok());  // Admin ops never ride in batches.
  bool found = false;
  for (const std::string& line : lines) {
    if (line.find("ssp.batch_subop_rejected") != std::string::npos &&
        line.find(obs::TraceIdHex(trace)) != std::string::npos &&
        line.find("\"op\":\"GetTraces\"") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "rejection line missing the envelope trace id";
}

TEST(SlowRequestCaptureTest, LiveOverTcpEndToEnd) {
  // The full slow-path loop: a traced request served by a real TCP
  // daemon crosses a (floor-level) threshold, the transport-owned
  // ServerSpanFrame publishes its timeline, and a later kGetTraces on
  // the same connection drains it — phases attributed, trace id intact.
  obs::SpanCollector::Global().Reset();
  uint64_t prev = obs::SlowRequestThresholdUs();
  obs::SetSlowRequestThresholdUs(1);

  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  auto channel = TcpSspChannel::Connect("127.0.0.1", (*daemon)->port());
  ASSERT_TRUE(channel.ok()) << channel.status().ToString();

  uint64_t trace = obs::NextTraceId();
  obs::SetCurrentTrace(obs::TraceContext{trace, 0});
  auto put = (*channel)->Call(Request::PutData(77, 0, ToBytes("payload")));
  obs::SetCurrentTrace(obs::TraceContext{});
  ASSERT_TRUE(put.ok()) << put.status().ToString();
  ASSERT_TRUE(put->ok());

  auto traces = (*channel)->Call(Request::GetTraces());
  ASSERT_TRUE(traces.ok()) << traces.status().ToString();
  ASSERT_TRUE(traces->ok());
  std::string json(traces->payload.begin(), traces->payload.end());
  EXPECT_NE(json.find(obs::TraceIdHex(trace)), std::string::npos) << json;
  EXPECT_NE(json.find("\"op\":\"PutData\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"server\""), std::string::npos) << json;

  // The same record, decoded: attribution must add up (the acceptance
  // bound is 10%; the structural bound is µs truncation per phase).
  bool checked = false;
  for (const obs::SpanRecord& rec : obs::SpanCollector::Global().Snap().slow) {
    if (rec.trace_id != trace) continue;
    checked = true;
    EXPECT_EQ(rec.kind, 'S');
    EXPECT_LE(rec.PhaseSumUs(), rec.total_us + 1);
    EXPECT_GE(rec.PhaseSumUs() + obs::kNumPhases, rec.total_us);
  }
  EXPECT_TRUE(checked) << "server span for the traced put never captured";

  obs::SetSlowRequestThresholdUs(prev);
  obs::SpanCollector::Global().Reset();
  (*daemon)->Shutdown();
}

TEST(GetStatsTest, LiveOverTcpWithFaultCountersMoving) {
  // End-to-end: a faulted daemon is polled for stats mid-churn; the
  // snapshot must arrive well-formed and show nonzero fault counters.
  SspServer server;
  auto daemon = TcpSspDaemon::Start(&server, 0);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  FaultPolicy::Options fopts;
  fopts.seed = 42;
  fopts.fail_prob = 0.3;
  FaultPolicy faults(fopts);
  server.set_fault_injector(&faults);

  uint64_t fail_before =
      obs::MetricsRegistry::Global().counter("ssp.fault.injected.fail")
          ->Value();

  core::RetryOptions ropts;
  ropts.max_attempts = 16;
  ropts.initial_backoff_ms = 1;
  ropts.max_backoff_ms = 5;
  ropts.seed = 7;
  uint16_t port = (*daemon)->port();
  auto factory = [port]() -> Result<std::unique_ptr<SspChannel>> {
    auto ch = TcpSspChannel::Connect("127.0.0.1", port);
    if (!ch.ok()) return ch.status();
    return std::unique_ptr<SspChannel>(std::move(*ch));
  };
  core::RetryingConnection conn(factory, ropts);
  // Churn until the injector has demonstrably fired.
  for (int i = 0; i < 40; ++i) {
    auto resp = conn.Call(Request::PutData(100 + i, 0, ToBytes("x")));
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  }
  ASSERT_GT(faults.counts().failed, 0u) << "schedule injected nothing";

  auto stats = conn.Call(Request::GetStats());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->ok());
  std::string json = StatsJson(stats->payload);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"ssp.fault.injected.fail\""), std::string::npos);
  EXPECT_EQ(json.find("\"ssp.fault.injected.fail\":0,"), std::string::npos)
      << "fault counter should be nonzero in " << json;
  // The live registry agrees with the wire snapshot's provenance.
  uint64_t fail_after =
      obs::MetricsRegistry::Global().counter("ssp.fault.injected.fail")
          ->Value();
  EXPECT_GT(fail_after, fail_before);
  (*daemon)->Shutdown();
}

}  // namespace
}  // namespace sharoes::ssp
