#include "ssp/ssp_server.h"

#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "obs/log.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "ssp/placement.h"
#include "ssp/wal.h"

namespace sharoes::ssp {

namespace {

/// Serving-path metrics, shared by every SspServer in the process (they
/// all record into the global registry; pointers are resolved once and
/// the record path is lock-free). See DESIGN.md §9 for the name scheme.
struct ServingMetrics {
  obs::Counter* requests[kNumOpCodes];
  obs::Histogram* service_us[kNumOpCodes];
  obs::Counter* responses[kNumRespStatuses];
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* batch_subops;
  obs::Counter* bad_frames;
  obs::Counter* wrong_shard;

  ServingMetrics() {
    auto& reg = obs::MetricsRegistry::Global();
    for (size_t i = 0; i < kNumOpCodes; ++i) {
      const char* op = OpCodeName(static_cast<OpCode>(i));
      requests[i] = reg.counter(std::string("ssp.requests.") + op);
      service_us[i] = reg.histogram(std::string("ssp.service_us.") + op);
    }
    for (size_t i = 0; i < kNumRespStatuses; ++i) {
      responses[i] = reg.counter(std::string("ssp.responses.") +
                                 RespStatusName(static_cast<RespStatus>(i)));
    }
    bytes_in = reg.counter("ssp.bytes_in");
    bytes_out = reg.counter("ssp.bytes_out");
    batch_subops = reg.counter("ssp.batch_subops");
    bad_frames = reg.counter("ssp.bad_frames");
    wrong_shard = reg.counter("ssp.wrong_shard");
  }
};

ServingMetrics& Metrics() {
  static ServingMetrics* metrics = new ServingMetrics();  // Never dies.
  return *metrics;
}

/// Best-effort request parse for log context on rare paths (injected
/// faults, malformed frames): surfaces the opcode and the propagated
/// trace so the server-side line joins to the client op and attempt.
void LogRequestEvent(obs::Severity sev, std::string_view event,
                     const Bytes& request_bytes, std::string_view detail) {
  if (!obs::LogEnabled(sev)) return;
  auto req = Request::Deserialize(request_bytes);
  if (req.ok()) {
    obs::Log(sev, event,
             {{"op", OpCodeName(req->op)},
              {"trace", obs::TraceIdHex(req->trace_id)},
              {"attempt", req->attempt},
              {"detail", detail}});
  } else {
    obs::Log(sev, event,
             {{"op", "unparseable"}, {"detail", detail}});
  }
}
}  // namespace

void SspServer::RegisterStoreGauges() {
  auto& reg = obs::MetricsRegistry::Global();
  ObjectStore* store = &store_;
  store_gauges_.push_back(reg.AddGauge(
      "ssp.store.objects", [store] { return store->Stats().object_count; }));
  store_gauges_.push_back(reg.AddGauge(
      "ssp.store.total_bytes",
      [store] { return store->Stats().total_bytes(); }));
  store_gauges_.push_back(reg.AddGauge(
      "ssp.store.metadata_bytes",
      [store] { return store->Stats().metadata_bytes; }));
  store_gauges_.push_back(reg.AddGauge(
      "ssp.store.data_bytes", [store] { return store->Stats().data_bytes; }));
  store_gauges_.push_back(reg.AddGauge(
      "ssp.store.tombstones",
      [store] { return store->Stats().tombstone_count; }));
}

Bytes SspServer::HandleWire(const Bytes& request_bytes, bool* sever) {
  ServingMetrics& m = Metrics();
  m.bytes_in->Add(request_bytes.size());
  FaultAction fault;
  if (FaultInjector* injector =
          fault_injector_.load(std::memory_order_acquire)) {
    fault = injector->OnRequest(request_bytes);
  }
  if (fault.kind == FaultAction::Kind::kDropConnection && sever != nullptr) {
    LogRequestEvent(obs::Severity::kWarn, "ssp.fault_injected",
                    request_bytes, "drop_connection");
    *sever = true;
    return {};
  }
  if (fault.kind == FaultAction::Kind::kFailRequest ||
      fault.kind == FaultAction::Kind::kDropConnection) {
    LogRequestEvent(obs::Severity::kWarn, "ssp.fault_injected",
                    request_bytes, "fail_request");
    m.responses[static_cast<size_t>(RespStatus::kError)]->Increment();
    Bytes wire = Response::Error().Serialize();
    m.bytes_out->Add(wire.size());
    return wire;
  }
  // Frame-parse phase: the trace id lives inside the frame, so the span
  // can only start after Deserialize; measure the parse when a transport
  // armed a span frame and back-charge it. In-process callers (no armed
  // frame) skip even the clock read.
  const bool span_armed = obs::ServerSpanArmed();
  std::chrono::steady_clock::time_point parse_start;
  if (span_armed) parse_start = std::chrono::steady_clock::now();
  auto req = Request::Deserialize(request_bytes);
  if (!req.ok()) {
    m.bad_frames->Increment();
    m.responses[static_cast<size_t>(RespStatus::kBadRequest)]->Increment();
    obs::Log(obs::Severity::kWarn, "ssp.bad_frame",
             {{"detail", req.status().ToString()},
              {"bytes", static_cast<uint64_t>(request_bytes.size())}});
    Bytes wire = Response::BadRequest().Serialize();
    m.bytes_out->Add(wire.size());
    return wire;
  }
  if (span_armed) {
    uint64_t parse_ns = static_cast<uint64_t>(
        (std::chrono::steady_clock::now() - parse_start).count());
    obs::BeginServerSpan(req->trace_id, OpCodeName(req->op), req->attempt,
                         parse_ns);
  }
  // Everything emitted while handling this request — log lines,
  // histogram exemplars, span phases, including kBatch sub-op work —
  // joins the envelope's trace.
  obs::ScopedTraceContext trace_scope(req->trace_id, req->attempt);
  auto start = std::chrono::steady_clock::now();
  Response resp = Handle(*req);
  auto elapsed = std::chrono::steady_clock::now() - start;
  size_t op = static_cast<size_t>(req->op);
  m.requests[op]->Increment();
  m.service_us[op]->Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
          .count()));
  if (req->op == OpCode::kBatch) m.batch_subops->Add(req->batch.size());
  // Every status answered counts, a batch's sub-op replies included: a
  // client that batches its reads answers most kNotFound and
  // kNotModified statuses inside a batch.
  m.responses[static_cast<size_t>(resp.status)]->Increment();
  for (const Response& sub : resp.batch) {
    m.responses[static_cast<size_t>(sub.status)]->Increment();
  }
  if (resp.status == RespStatus::kBadRequest) {
    obs::Log(obs::Severity::kWarn, "ssp.request_rejected",
             {{"op", OpCodeName(req->op)},
              {"trace", obs::TraceIdHex(req->trace_id)},
              {"attempt", req->attempt}});
  }
  Bytes wire;
  {
    obs::PhaseScope serialize_phase(obs::Phase::kRespSerialize);
    wire = resp.Serialize();
  }
  m.bytes_out->Add(wire.size());
  if (fault.kind == FaultAction::Kind::kDelayResponse) {
    LogRequestEvent(obs::Severity::kWarn, "ssp.fault_injected",
                    request_bytes, "delay_response");
    std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
  } else if (fault.kind == FaultAction::Kind::kCorruptResponse) {
    LogRequestEvent(obs::Severity::kWarn, "ssp.fault_injected",
                    request_bytes, "corrupt_response");
    CorruptResponsePayload(&wire, fault.corrupt_mask);
  }
  return wire;
}

namespace {

/// True iff `batch` re-sends one the store applied (the daemon died
/// before its reply): it mutates a key twice (point op or ranged delete),
/// which applying again would walk through its old states and raise its
/// generation, and every key holds the state the batch leaves it in. A
/// batch that mutates each key once, or carries a gen-gated repair op,
/// needs no such care.
bool IsAppliedBatch(const std::vector<Request>& batch,
                    const ObjectStore& store) {
  std::map<ObjectRef, const Request*> last;  // Each key's last point op.
  std::set<std::pair<ObjectFamily, uint64_t>> ranges;
  bool repeated = false;
  for (const Request& sub : batch) {
    if (!IsMutatingOp(sub.op)) continue;
    if (sub.has_store_gen) return false;
    if (VerbOf(sub.op) == OpVerb::kDeleteInode) {
      ranges.insert({FamilyOf(sub.op), sub.inode});
      if (sub.op == OpCode::kDeleteInodeMetadata) {
        ranges.insert({ObjectFamily::kUserMetadata, sub.inode});
      }
      // A key the range takes ends dead unless a later op puts it.
      repeated |= std::erase_if(last, [&](const auto& kv) {
                    return ranges.contains({kv.first.family, kv.first.k1});
                  }) > 0;
      continue;
    }
    const ObjectRef ref = *RefOf(sub);
    repeated |= last.contains(ref) || ranges.contains({ref.family, ref.k1});
    last[ref] = &sub;
  }
  if (!repeated) return false;
  for (const auto& [ref, sub] : last) {
    const auto held = store.GetVersioned(ref);
    const bool live = held.has_value() && !held->tombstone;
    if (VerbOf(sub->op) == OpVerb::kPut
            ? !live || held->blob != sub->payload
            : live || (!held.has_value() && store.tombstones_enabled())) {
      return false;
    }
  }
  // Reached, in practice, only by a re-send or a rewrite of stored bytes.
  if (ranges.empty()) return true;
  for (const ObjectVersion& v : store.ListVersions()) {
    if (!v.tombstone && ranges.contains({v.ref.family, v.ref.k1}) &&
        !last.contains(v.ref)) {
      return false;  // A live key the batch's ranged delete would take.
    }
  }
  return true;
}

}  // namespace

Response SspServer::Handle(const Request& req) {
  // Bracket the whole request (appends + store applies) in the WAL's
  // shared-side guard so a compaction cut never lands between a sub-op's
  // log append and its store apply. Reads take the guard too — it is a
  // shared lock, so they still run in parallel — which keeps this path
  // branch-free about what the request might contain.
  Wal* wal = wal_.load(std::memory_order_acquire);
  std::optional<Wal::OpGuard> guard;
  if (wal != nullptr) guard.emplace(wal->StartOp());

  Response resp;
  bool mutated = false;
  uint64_t max_wal_seq = 0;
  // A re-sent batch is acknowledged without being logged or applied
  // again, once everything logged so far is durable.
  const bool replayed =
      req.op == OpCode::kBatch && IsAppliedBatch(req.batch, store_);
  if (replayed && wal != nullptr) max_wal_seq = wal->last_sequence();
  if (req.op == OpCode::kBatch) {
    resp.status = RespStatus::kOk;
    resp.batch.reserve(req.batch.size());
    for (const Request& sub : req.batch) {
      // Only store-level gets/puts/deletes may ride inside a batch:
      // nested batches and admin ops (kGetStats) are rejected per sub-op
      // so the WAL's "sub-ops are individually loggable" invariant holds
      // for every opcode, present and future.
      if (!IsBatchableOp(sub.op)) {
        obs::Log(obs::Severity::kWarn, "ssp.batch_subop_rejected",
                 {{"op", OpCodeName(sub.op)},
                  {"trace", obs::TraceIdHex(obs::CurrentTrace().trace_id)},
                  {"attempt", obs::CurrentTrace().attempt}});
        resp.batch.push_back(Response::BadRequest());
        continue;
      }
      mutated = mutated || IsMutatingOp(sub.op);
      // Sub-requests never carry extensions on the wire; the top-level
      // frame's versioned-read flag covers every sub-read.
      resp.batch.push_back(
          HandleOne(sub, req.want_version, replayed, &max_wal_seq));
    }
  } else {
    mutated = IsMutatingOp(req.op);
    resp = HandleOne(req, req.want_version, /*replayed=*/false, &max_wal_seq);
  }

  // One durability point per top-level request: under sync=always a
  // batch costs at most one fsync, not one per sub-op, and concurrent
  // requests share that fsync through the WAL's group-commit queue
  // (CommitThrough waits only for this request's own highest append).
  // If the sync fails the store holds the mutation but durability is
  // not assured, so answer kError — the client retries and every
  // mutating op is idempotent.
  if (wal != nullptr && mutated) {
    Status acked = wal->CommitThrough(max_wal_seq);
    if (!acked.ok()) {
      obs::Log(obs::Severity::kError, "ssp.wal_ack_failed",
               {{"detail", acked.ToString()}});
      return Response::Error();
    }
  }
  return resp;
}

Response SspServer::HandleOne(const Request& req, bool want_version,
                              bool replayed, uint64_t* max_wal_seq) {
  // Shard-ownership gate (placement.h): a store-scoped op for a routing
  // key this daemon does not replicate is refused before it can touch
  // the WAL or the store — the reply tells the client its cluster
  // config is stale. Admin ops (kGetStats/kGetTraces) are per-daemon by
  // design and always pass. Checked here, not in Handle, so batch
  // sub-ops get the same gate individually: one misrouted sub-op must
  // not poison its siblings.
  if (const PlacementRing* ring =
          placement_.load(std::memory_order_acquire)) {
    if (IsBatchableOp(req.op) &&
        !ring->Owns(placement_node_, RoutingKeyOf(req))) {
      Metrics().wrong_shard->Increment();
      obs::Log(obs::Severity::kWarn, "ssp.wrong_shard",
               {{"op", OpCodeName(req.op)},
                {"inode", req.inode},
                {"trace", obs::TraceIdHex(obs::CurrentTrace().trace_id)}});
      return Response::WrongShard();
    }
  }
  // Mutations funnel through the same ApplyWalOp the recovery path
  // replays, so a recovered store is byte-identical by construction.
  // Log-before-apply: an op that reaches the store is always in the log
  // (the reverse — logged but not applied due to a crash — is exactly
  // what replay repairs). A mutation of a re-sent batch is answered
  // without either: the store already holds the batch's effect.
  if (IsMutatingOp(req.op)) {
    if (replayed) return Response::Ok();
    if (Wal* wal = wal_.load(std::memory_order_acquire)) {
      uint64_t seq = 0;
      Status appended = wal->Append(req, &seq);
      if (appended.ok() && seq > *max_wal_seq) *max_wal_seq = seq;
      if (!appended.ok()) {
        obs::Log(obs::Severity::kError, "ssp.wal_append_failed",
                 {{"op", OpCodeName(req.op)},
                  {"trace", obs::TraceIdHex(obs::CurrentTrace().trace_id)},
                  {"detail", appended.ToString()}});
        return Response::Error();
      }
    }
    obs::PhaseScope store_phase(obs::Phase::kStore);
    Status applied = ApplyWalOp(req, &store_);
    if (!applied.ok()) return Response::BadRequest();
    return Response::Ok();
  }
  if (req.op == OpCode::kGetStats) {
    // Admin RPC: every counter, gauge, and latency histogram in the
    // process (optionally restricted to names starting with the
    // payload's prefix), as a binary RegistrySnapshot — the form a
    // cluster client can merge across nodes; the reader renders JSON.
    // Read-only — it never touches the store, so it is safe to issue
    // against a serving daemon.
    std::string prefix(req.payload.begin(), req.payload.end());
    return Response::Ok(
        obs::MetricsRegistry::Global().Snapshot(prefix).SerializeBinary());
  }
  if (req.op == OpCode::kGetTraces) {
    // Admin RPC: captured slow-request span timelines. Read-only like
    // kGetStats (the collector snapshot never blocks publishers).
    return Response::Ok(ToBytes(obs::SpanCollector::Global().ToJson()));
  }
  if (VerbOf(req.op) != OpVerb::kGet) return Response::BadRequest();
  // A conditional get carries the digest of a blob the reader holds
  // (DESIGN.md §19); the digest is computed only for such a get.
  const bool conditional = !req.payload.empty();
  if (conditional && req.payload.size() != kBlobDigestSize) {
    return Response::BadRequest();
  }
  auto unchanged = [&](const Bytes& blob) {
    return conditional && BlobDigest(blob) == req.payload;
  };
  obs::PhaseScope store_phase(obs::Phase::kStore);
  const ObjectRef ref = *RefOf(req);
  if (!want_version) {
    std::optional<Bytes> blob = store_.Get(ref);
    if (!blob.has_value()) return Response::NotFound();
    if (unchanged(*blob)) return Response::NotModified();
    return Response::Ok(std::move(*blob));
  }
  // Versioned read (quorum/repair/scrub path): expose the entry's
  // generation, and distinguish "deleted" (tombstone, comparable) from
  // "never heard of it" (plain kNotFound).
  auto v = store_.GetVersioned(ref);
  if (!v.has_value()) return Response::NotFound();
  if (v->tombstone) return Response::Deleted(v->gen);
  if (unchanged(v->blob)) return Response::NotModified(v->gen);
  return Response::Versioned(std::move(v->blob), v->gen);
}

Result<Response> SspConnection::Call(const Request& req) {
  Bytes wire_request = req.Serialize();
  Bytes wire_response = server_->HandleWire(wire_request);
  transport_->ChargeRoundTrip(wire_request.size(), wire_response.size());
  return Response::Deserialize(wire_response);
}

}  // namespace sharoes::ssp
