#include "ssp/message.h"

#include <algorithm>

#include "crypto/sha256.h"

namespace sharoes::ssp {

namespace {
constexpr int kMaxBatchDepth = 2;  // A batch may not contain batches.

// Smallest possible wire encodings, used to bound attacker-controlled
// batch counts before reserve(): a count claiming more sub-messages than
// the remaining bytes could possibly hold is a lie, and trusting it would
// let a ~40-byte frame demand gigabytes of vector reservation.
//   Request:  op(1) + inode(8) + selector(8) + user/group/block(12) +
//             payload length(4) + batch count(4).
constexpr size_t kMinRequestWire = 37;
//   Response: status(1) + payload length(4) + batch count(4).
constexpr size_t kMinResponseWire = 9;

// Trace extension entry payload: trace id (8) + attempt (1).
constexpr uint8_t kTraceEntryLen = 9;
// Store-generation entry payload: one u64.
constexpr uint8_t kStoreGenEntryLen = 8;

// Appends the extension block for whichever entries are present. A
// request with no extensions gets no block at all, preserving the
// byte-identical-to-legacy property the protocol promises.
void AppendExtensions(BinaryWriter* w, uint64_t trace_id, uint8_t attempt,
                      bool has_store_gen, uint64_t store_gen,
                      bool want_version) {
  uint8_t entries = static_cast<uint8_t>((trace_id != 0 ? 1 : 0) +
                                         (has_store_gen ? 1 : 0) +
                                         (want_version ? 1 : 0));
  if (entries == 0) return;
  w->PutU32(kRequestExtensionMagic);
  w->PutU8(entries);
  if (trace_id != 0) {
    w->PutU8(kExtensionTagTrace);
    w->PutU8(kTraceEntryLen);
    w->PutU64(trace_id);
    w->PutU8(attempt);
  }
  if (has_store_gen) {
    w->PutU8(kExtensionTagStoreGen);
    w->PutU8(kStoreGenEntryLen);
    w->PutU64(store_gen);
  }
  if (want_version) {
    w->PutU8(kExtensionTagWantVersion);
    w->PutU8(0);  // Flag entry: presence is the value.
  }
}

// The opcode table, indexed by opcode: metric name, verb, and the object
// family the op addresses. With RefOf and PointRequest below it is the
// only place the protocol is spelled per family; every other layer
// works on ObjectRef.
struct OpInfo {
  const char* name;
  OpVerb verb;
  ObjectFamily family;
};

using enum OpVerb;
using enum ObjectFamily;
constexpr OpInfo kOps[kNumOpCodes] = {
    {"GetSuperblock", kGet, kSuperblock},
    {"PutSuperblock", kPut, kSuperblock},
    {"DeleteSuperblock", kDelete, kSuperblock},
    {"GetMetadata", kGet, kMetadata},
    {"PutMetadata", kPut, kMetadata},
    {"DeleteMetadata", kDelete, kMetadata},
    {"DeleteInodeMetadata", kDeleteInode, kMetadata},
    {"GetUserMetadata", kGet, kUserMetadata},
    {"PutUserMetadata", kPut, kUserMetadata},
    {"DeleteUserMetadata", kDelete, kUserMetadata},
    {"GetData", kGet, kData},
    {"PutData", kPut, kData},
    {"DeleteInodeData", kDeleteInode, kData},
    {"GetGroupKey", kGet, kGroupKey},
    {"PutGroupKey", kPut, kGroupKey},
    {"DeleteGroupKey", kDelete, kGroupKey},
    {"Batch", kBatch, kData},
    {"GetStats", kAdmin, kData},
    {"GetTraces", kAdmin, kData},
    {"DeleteData", kDelete, kData},
};

// Out-of-range opcodes (never produced by Deserialize) read as a
// store-less op.
constexpr OpInfo kUnknownOp = {"Unknown", kAdmin, kData};

const OpInfo& InfoOf(OpCode op) {
  const size_t i = static_cast<size_t>(op);
  return i < kNumOpCodes ? kOps[i] : kUnknownOp;
}

// Routing tag domain per family (see RoutingKeyOf). Inode numbers are
// counter-allocated (they never approach 2^61), so reserving the top
// bits for the user- and group-keyed families cannot collide with them.
constexpr uint64_t kUserDomain = 1ull << 62;
constexpr uint64_t kGroupDomain = 2ull << 62;
constexpr uint64_t kRoutingDomain[kNumObjectFamilies] = {
    kUserDomain, 0, 0, 0, kGroupDomain};

bool IsPointVerb(OpVerb verb) {
  return verb == kGet || verb == kPut || verb == kDelete;
}

// The `verb` request on `ref`: the family's point opcode from the table,
// with the ref's coordinates in the family's Request fields.
Request PointRequest(OpVerb verb, const ObjectRef& ref) {
  Request r;
  for (size_t i = 0; i < kNumOpCodes; ++i) {
    if (kOps[i].verb == verb && kOps[i].family == ref.family) {
      r.op = static_cast<OpCode>(i);
      break;
    }
  }
  switch (ref.family) {
    case kSuperblock:
      r.user = static_cast<uint32_t>(ref.k1);
      break;
    case kMetadata:
      r.inode = ref.k1;
      r.selector = ref.k2;
      break;
    case kUserMetadata:
      r.inode = ref.k1;
      r.user = static_cast<uint32_t>(ref.k2);
      break;
    case kData:
      r.inode = ref.k1;
      r.block = static_cast<uint32_t>(ref.k2);
      break;
    case kGroupKey:
      r.group = static_cast<uint32_t>(ref.k1);
      r.user = static_cast<uint32_t>(ref.k2);
      break;
  }
  return r;
}

// The versioned-read generation suffix: 8 bytes, little-endian.
constexpr size_t kGenSuffix = 8;

Bytes GenBytes(uint64_t gen) {
  BinaryWriter w;
  w.PutU64(gen);
  return w.Take();
}

}  // namespace

const char* OpCodeName(OpCode op) { return InfoOf(op).name; }

OpVerb VerbOf(OpCode op) { return InfoOf(op).verb; }

ObjectFamily FamilyOf(OpCode op) { return InfoOf(op).family; }

bool IsMutatingOp(OpCode op) {
  const OpVerb verb = VerbOf(op);
  return verb == OpVerb::kPut || verb == OpVerb::kDelete ||
         verb == OpVerb::kDeleteInode;
}

bool IsBatchableOp(OpCode op) {
  // Store-scoped and individually loggable: gets and every mutation.
  return VerbOf(op) == OpVerb::kGet || IsMutatingOp(op);
}

bool IsIdempotentOp(OpCode op) {
  // Reads and admin snapshots have no effects to repeat; puts and
  // deletes are absolute assignments to fixed coordinates (no appends,
  // counters, or compare-and-swaps), so a replay reproduces the same
  // final state. kBatch is deliberately excluded: a batch is idempotent
  // iff every sub-op is, which is the caller's per-request question
  // (see core::RetryingConnection), not a property of the wrapper.
  return static_cast<size_t>(op) < kNumOpCodes &&
         VerbOf(op) != OpVerb::kBatch;
}

std::optional<ObjectRef> RefOf(const Request& r) {
  if (!IsPointVerb(VerbOf(r.op))) return std::nullopt;
  switch (FamilyOf(r.op)) {
    case kSuperblock: return ObjectRef::Superblock(r.user);
    case kMetadata: return ObjectRef::Metadata(r.inode, r.selector);
    case kUserMetadata: return ObjectRef::UserMetadata(r.inode, r.user);
    case kData: return ObjectRef::Data(r.inode, r.block);
    case kGroupKey: return ObjectRef::GroupKey(r.group, r.user);
  }
  return std::nullopt;
}

uint64_t RoutingKeyOf(const Request& req) {
  // Ranged deletes are inode-scoped like the rest of their family, so
  // the whole object colocates on one replica set.
  const std::optional<ObjectRef> ref = RefOf(req);
  if (!ref.has_value()) return req.inode;
  return kRoutingDomain[static_cast<size_t>(ref->family)] | ref->k1;
}

const char* RespStatusName(RespStatus status) {
  switch (status) {
    case RespStatus::kOk: return "kOk";
    case RespStatus::kNotFound: return "kNotFound";
    case RespStatus::kBadRequest: return "kBadRequest";
    case RespStatus::kError: return "kError";
    case RespStatus::kWrongShard: return "kWrongShard";
    case RespStatus::kDeleted: return "kDeleted";
    case RespStatus::kNotModified: return "kNotModified";
  }
  return "kUnknown";
}

Status ReadStatus(RespStatus status, const std::string& what) {
  switch (status) {
    case RespStatus::kOk:
      return Status::OK();
    case RespStatus::kNotFound:
      return Status::NotFound(what + " not at SSP");
    case RespStatus::kError:
      return Status::Unavailable(what + ": SSP reported transient error");
    default:
      return Status::IoError(what + ": SSP answered " +
                             RespStatusName(status));
  }
}

void Request::AppendTo(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(op));
  w->PutU64(inode);
  w->PutU64(selector);
  w->PutU32(user);
  w->PutU32(group);
  w->PutU32(block);
  w->PutBytes(payload);
  w->PutU32(static_cast<uint32_t>(batch.size()));
  for (const Request& r : batch) r.AppendTo(w);
}

Bytes Request::Serialize() const {
  BinaryWriter w;
  AppendTo(&w);
  AppendExtensions(&w, trace_id, attempt, has_store_gen, store_gen,
                   want_version);
  return w.Take();
}

Bytes Request::SerializeWithTrace(uint64_t trace, uint8_t att) const {
  BinaryWriter w;
  AppendTo(&w);
  AppendExtensions(&w, trace, att, has_store_gen, store_gen, want_version);
  return w.Take();
}

Status Request::ReadExtensions(BinaryReader* r, Request* req) {
  uint32_t magic = r->GetU32();
  if (!r->ok() || magic != kRequestExtensionMagic) {
    return Status::Corruption("trailing bytes in request");
  }
  uint8_t entries = r->GetU8();
  for (uint8_t i = 0; r->ok() && i < entries; ++i) {
    uint8_t tag = r->GetU8();
    uint8_t len = r->GetU8();
    if (tag == kExtensionTagTrace && len == kTraceEntryLen) {
      req->trace_id = r->GetU64();
      req->attempt = r->GetU8();
    } else if (tag == kExtensionTagStoreGen && len == kStoreGenEntryLen) {
      req->store_gen = r->GetU64();
      req->has_store_gen = true;
    } else if (tag == kExtensionTagWantVersion && len == 0) {
      req->want_version = true;
    } else {
      // Unknown (future) extension, or a known tag with an unexpected
      // length: skip the entry wholesale. This is what lets an old
      // server ignore a new client's extensions gracefully.
      r->GetRaw(len);
    }
  }
  if (!r->ok()) return Status::Corruption("truncated request extension");
  return Status::OK();
}

Result<Request> Request::ReadFrom(BinaryReader* r, int depth) {
  if (depth >= kMaxBatchDepth) {
    return Status::Corruption("nested batch in request");
  }
  Request req;
  uint8_t op = r->GetU8();
  if (r->ok() && op >= kNumOpCodes) {
    return Status::Corruption("unknown opcode");
  }
  req.op = static_cast<OpCode>(op);
  req.inode = r->GetU64();
  req.selector = r->GetU64();
  req.user = r->GetU32();
  req.group = r->GetU32();
  req.block = r->GetU32();
  req.payload = r->GetBytes();
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining() / kMinRequestWire) {
    return Status::Corruption("truncated request");
  }
  if (n > 0 && req.op != OpCode::kBatch) {
    return Status::Corruption("sub-requests on non-batch opcode");
  }
  req.batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SHAROES_ASSIGN_OR_RETURN(Request sub, ReadFrom(r, depth + 1));
    req.batch.push_back(std::move(sub));
  }
  return req;
}

Result<Request> Request::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SHAROES_ASSIGN_OR_RETURN(Request req, ReadFrom(&r, 0));
  // A top-level request may be followed by an extension block (trace
  // propagation etc.); anything else trailing is corruption, as before.
  if (r.remaining() > 0) {
    SHAROES_RETURN_IF_ERROR(ReadExtensions(&r, &req));
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("request"));
  return req;
}

Request Request::Get(const ObjectRef& ref) {
  return PointRequest(kGet, ref);
}

Request Request::Put(const ObjectRef& ref, Bytes payload) {
  Request r = PointRequest(kPut, ref);
  r.payload = std::move(payload);
  return r;
}

Request Request::Delete(const ObjectRef& ref) {
  return PointRequest(kDelete, ref);
}

Request Request::GetSuperblock(uint32_t user) {
  return Get(ObjectRef::Superblock(user));
}

Request Request::PutSuperblock(uint32_t user, Bytes payload) {
  return Put(ObjectRef::Superblock(user), std::move(payload));
}

Request Request::GetMetadata(fs::InodeNum inode, Selector sel) {
  return Get(ObjectRef::Metadata(inode, sel));
}

Request Request::PutMetadata(fs::InodeNum inode, Selector sel, Bytes payload) {
  return Put(ObjectRef::Metadata(inode, sel), std::move(payload));
}

Request Request::DeleteInodeMetadata(fs::InodeNum inode) {
  Request r;
  r.op = OpCode::kDeleteInodeMetadata;
  r.inode = inode;
  return r;
}

Request Request::GetUserMetadata(fs::InodeNum inode, uint32_t user) {
  return Get(ObjectRef::UserMetadata(inode, user));
}

Request Request::PutUserMetadata(fs::InodeNum inode, uint32_t user,
                                 Bytes payload) {
  return Put(ObjectRef::UserMetadata(inode, user), std::move(payload));
}

Request Request::GetData(fs::InodeNum inode, uint32_t block) {
  return Get(ObjectRef::Data(inode, block));
}

Request Request::PutData(fs::InodeNum inode, uint32_t block, Bytes payload) {
  return Put(ObjectRef::Data(inode, block), std::move(payload));
}

Request Request::DeleteData(fs::InodeNum inode, uint32_t block) {
  return Delete(ObjectRef::Data(inode, block));
}

Request Request::DeleteInodeData(fs::InodeNum inode) {
  Request r;
  r.op = OpCode::kDeleteInodeData;
  r.inode = inode;
  return r;
}

Request Request::GetGroupKey(uint32_t group, uint32_t user) {
  return Get(ObjectRef::GroupKey(group, user));
}

Request Request::PutGroupKey(uint32_t group, uint32_t user, Bytes payload) {
  return Put(ObjectRef::GroupKey(group, user), std::move(payload));
}

Request Request::DeleteGroupKey(uint32_t group, uint32_t user) {
  return Delete(ObjectRef::GroupKey(group, user));
}

Request Request::Batch(std::vector<Request> requests) {
  Request r;
  r.op = OpCode::kBatch;
  r.batch = std::move(requests);
  return r;
}

Request Request::GetStats(std::string prefix) {
  Request r;
  r.op = OpCode::kGetStats;
  r.payload.assign(prefix.begin(), prefix.end());
  return r;
}

Request Request::GetTraces() {
  Request r;
  r.op = OpCode::kGetTraces;
  return r;
}

void Response::AppendTo(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(status));
  w->PutBytes(payload);
  w->PutU32(static_cast<uint32_t>(batch.size()));
  for (const Response& r : batch) r.AppendTo(w);
}

Bytes Response::Serialize() const {
  BinaryWriter w;
  AppendTo(&w);
  return w.Take();
}

Response Response::Versioned(Bytes blob, uint64_t gen) {
  const Bytes suffix = GenBytes(gen);
  blob.insert(blob.end(), suffix.begin(), suffix.end());
  return Ok(std::move(blob));
}

Response Response::Deleted(uint64_t gen) {
  return Response{RespStatus::kDeleted, GenBytes(gen), {}};
}

Response Response::NotModified(std::optional<uint64_t> gen) {
  return Response{RespStatus::kNotModified,
                  gen.has_value() ? GenBytes(*gen) : Bytes{}, {}};
}

Bytes BlobDigest(const Bytes& blob) {
  Bytes digest = crypto::Sha256Digest(blob);
  digest.resize(kBlobDigestSize);
  return digest;
}

Result<Response> Response::ReadFrom(BinaryReader* r, int depth) {
  if (depth >= kMaxBatchDepth) {
    return Status::Corruption("nested batch in response");
  }
  Response resp;
  uint8_t status = r->GetU8();
  if (r->ok() && status >= kNumRespStatuses) {
    return Status::Corruption("unknown response status");
  }
  resp.status = static_cast<RespStatus>(status);
  resp.payload = r->GetBytes();
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining() / kMinResponseWire) {
    return Status::Corruption("truncated response");
  }
  resp.batch.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SHAROES_ASSIGN_OR_RETURN(Response sub, ReadFrom(r, depth + 1));
    resp.batch.push_back(std::move(sub));
  }
  return resp;
}

Result<Response> Response::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SHAROES_ASSIGN_OR_RETURN(Response resp, ReadFrom(&r, 0));
  SHAROES_RETURN_IF_ERROR(r.Finish("response"));
  return resp;
}

std::optional<VersionedReply> DecodeVersioned(const Response& resp) {
  if (resp.status != RespStatus::kOk && resp.status != RespStatus::kNotFound &&
      resp.status != RespStatus::kDeleted &&
      resp.status != RespStatus::kNotModified) {
    return std::nullopt;
  }
  VersionedReply out;
  out.status = resp.status;
  if (resp.status == RespStatus::kNotFound) return out;
  // A payload too short to carry the suffix decodes as generation 0.
  const Bytes& p = resp.payload;
  const size_t body = p.size() >= kGenSuffix ? p.size() - kGenSuffix
                                              : p.size();
  if (body < p.size()) {
    BinaryReader r(p.data() + body, kGenSuffix);
    out.gen = r.GetU64();
  }
  if (resp.status == RespStatus::kOk) {
    out.payload.assign(p.begin(), p.begin() + body);
  }
  return out;
}

Freshest SettleFreshest(
    const std::vector<std::optional<VersionedReply>>& replies,
    const Bytes& asked) {
  // Each replica's per-key generation counts the gen-gated ops it has
  // applied to that key, so the highest generation among the replies is
  // the freshest acknowledged state — live or deleted. A tombstone wins
  // a tie against a live value: equal counters with different final
  // states only arise from rare double-failure interleavings where
  // either order is defensible, and a revocation-oriented store errs
  // toward staying deleted. Live copies at that generation that differ
  // are diverged histories with no generation evidence to rank them.
  Freshest f;
  for (const auto& r : replies) {
    if (r.has_value() && r->status != RespStatus::kNotFound) {
      f.gen = std::max(f.gen, r->gen);
    }
  }
  // Two live replies hold the same bytes when both carry them and they
  // match, or when both are kNotModified (the asked bytes), or when the
  // one kOk reply's digest is the asked one.
  auto same = [&asked](const VersionedReply& a, const VersionedReply& b) {
    const bool a_ok = a.status == RespStatus::kOk;
    const bool b_ok = b.status == RespStatus::kOk;
    if (a_ok && b_ok) return a.payload == b.payload;
    if (!a_ok && !b_ok) return true;
    return BlobDigest(a_ok ? a.payload : b.payload) == asked;
  };
  bool diverged = false;
  for (size_t i = 0; i < replies.size(); ++i) {
    const auto& r = replies[i];
    if (!r.has_value() || r->gen != f.gen) continue;
    if (r->status == RespStatus::kDeleted) f.deleted = true;
    if (!r->live()) continue;
    if (!f.live.has_value()) {
      f.live = i;
    } else if (!same(*r, *replies[*f.live])) {
      diverged = true;
    }
  }
  if (f.deleted || diverged) f.live.reset();
  return f;
}

std::vector<Repair> RepairsFor(
    const ObjectRef& ref,
    const std::vector<std::optional<VersionedReply>>& replies, bool deleted,
    const Bytes& payload, uint64_t gen, const Bytes& asked) {
  std::vector<Repair> repairs;
  const bool payload_asked =
      !asked.empty() && !deleted && BlobDigest(payload) == asked;
  for (size_t pos = 0; pos < replies.size(); ++pos) {
    const auto& r = replies[pos];
    if (!r.has_value()) continue;
    const bool holds =
        r->status == RespStatus::kOk ? r->payload == payload
        : r->status == RespStatus::kNotModified && payload_asked;
    if (deleted ? !r->live() : (holds && r->gen == gen)) continue;
    // Matching bytes at a lower generation still get the fix: a later
    // delete would tombstone that copy below the live ones, and a read
    // pairing the two would bring the key back.
    Request fix = deleted ? Request::Delete(ref) : Request::Put(ref, payload);
    if (gen != 0) {
      fix.has_store_gen = true;
      fix.store_gen = gen;
    }
    repairs.push_back({pos, std::move(fix)});
  }
  return repairs;
}

}  // namespace sharoes::ssp
