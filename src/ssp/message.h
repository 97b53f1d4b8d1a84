// The client <-> SSP wire protocol.
//
// The SSP performs no computation on data (paper §IV): it is a hashtable
// of encrypted blobs keyed by inode number plus either a CAP selector
// (Scheme-2), a user id (Scheme-1 / split points / superblocks), or a
// block index (data). The protocol therefore has only get/put/delete
// verbs plus a batch wrapper that lets a client combine the multiple
// replica writes of one logical operation into one round trip ("metadata
// send" / "parent-dir send" in the paper's Figure 8).

#ifndef SHAROES_SSP_MESSAGE_H_
#define SHAROES_SSP_MESSAGE_H_

#include <optional>
#include <string>
#include <vector>

#include "fs/types.h"
#include "util/binary_io.h"
#include "util/result.h"

namespace sharoes::ssp {

enum class OpCode : uint8_t {
  kGetSuperblock = 0,
  kPutSuperblock = 1,
  kDeleteSuperblock = 2,
  kGetMetadata = 3,
  kPutMetadata = 4,
  kDeleteMetadata = 5,       // One (inode, selector) replica.
  kDeleteInodeMetadata = 6,  // Every replica, table object and split
                             // block of an inode.
  kGetUserMetadata = 7,      // Split-point per-user blocks (paper §III-D.2).
  kPutUserMetadata = 8,
  kDeleteUserMetadata = 9,
  kGetData = 10,
  kPutData = 11,
  kDeleteInodeData = 12,  // Every data block of an inode.
  kGetGroupKey = 13,
  kPutGroupKey = 14,
  kDeleteGroupKey = 15,
  kBatch = 16,
  kGetStats = 17,   // Admin: metrics-registry snapshot (JSON). An optional
                    // payload is a metric-name prefix filter ("ssp.wal").
  kGetTraces = 18,  // Admin: captured slow-request span timelines (JSON,
                    // see obs/span.h). Read-only, like kGetStats.
  kDeleteData = 19,  // One (inode, block) data replica. Exists so read
                     // repair can propagate a *single block's* tombstone
                     // without re-deleting the whole inode's data range.
};

/// One past the largest valid OpCode (array sizing, validity checks).
inline constexpr size_t kNumOpCodes =
    static_cast<size_t>(OpCode::kDeleteData) + 1;

/// Stable metric-label name for an opcode ("GetData", "Batch", ...).
const char* OpCodeName(OpCode op);

/// True iff the opcode mutates the store. Exactly these ops go through
/// the write-ahead log (ssp/wal.h); gets, stats, and the batch wrapper
/// (whose sub-ops are logged individually) do not.
bool IsMutatingOp(OpCode op);

/// True iff the opcode may appear as a kBatch sub-op: the store-level
/// gets/puts/deletes. Nesting (kBatch) and admin ops (kGetStats) are
/// excluded — sub-ops must be individually WAL-loggable and store-scoped,
/// and the server rejects anything else with kBadRequest so a future
/// opcode cannot silently ride inside a batch.
bool IsBatchableOp(OpCode op);

/// True iff executing the op twice leaves the store in the state of
/// executing it once — the property that makes transparent transport
/// retry (core::RetryingConnection) safe for it. Every current opcode
/// qualifies (absolute-coordinate puts/gets/deletes); any future
/// non-idempotent opcode must return false here, which makes the retry
/// layer refuse to replay it until it carries a request id + dedup
/// window. kBatch itself returns false — batch idempotence is the AND
/// over sub-ops and is decided per request by the retry layer.
bool IsIdempotentOp(OpCode op);

/// Replica selector: which copy of an inode's metadata. Scheme-2 uses a
/// CAP id, Scheme-1 a hash of the user id; the baselines use selector 0.
using Selector = uint64_t;

/// The five key spaces of the SSP's one hashtable.
enum class ObjectFamily : uint8_t {
  kSuperblock = 0,    // k1 = user,  k2 = 0.
  kMetadata = 1,      // k1 = inode, k2 = selector.
  kUserMetadata = 2,  // k1 = inode, k2 = user.
  kData = 3,          // k1 = inode, k2 = block.
  kGroupKey = 4,      // k1 = group, k2 = user.
};
inline constexpr size_t kNumObjectFamilies = 5;

/// The one address of a stored object, shared by the store, the WAL
/// apply, the server, read repair and the scrubber. Ordered by family,
/// then k1, then k2 — so one inode's objects of one family are a
/// contiguous range, and a family-sorted walk is the snapshot order.
struct ObjectRef {
  ObjectFamily family = ObjectFamily::kData;
  uint64_t k1 = 0;
  uint64_t k2 = 0;

  static ObjectRef Superblock(uint32_t user) {
    return {ObjectFamily::kSuperblock, user, 0};
  }
  static ObjectRef Metadata(fs::InodeNum inode, Selector sel) {
    return {ObjectFamily::kMetadata, inode, sel};
  }
  static ObjectRef UserMetadata(fs::InodeNum inode, uint32_t user) {
    return {ObjectFamily::kUserMetadata, inode, user};
  }
  static ObjectRef Data(fs::InodeNum inode, uint32_t block) {
    return {ObjectFamily::kData, inode, block};
  }
  static ObjectRef GroupKey(uint32_t group, uint32_t user) {
    return {ObjectFamily::kGroupKey, group, user};
  }

  friend auto operator<=>(const ObjectRef&, const ObjectRef&) = default;
};

/// What an opcode does. Point verbs (kGet/kPut/kDelete) address exactly
/// one ObjectRef; kDeleteInode drops one family's objects of an inode.
enum class OpVerb : uint8_t {
  kGet,
  kPut,
  kDelete,
  kDeleteInode,
  kBatch,
  kAdmin,  // kGetStats / kGetTraces: per-daemon, no store access.
};

OpVerb VerbOf(OpCode op);
/// The family a point op or kDeleteInode op addresses (meaningless for
/// kBatch and admin ops).
ObjectFamily FamilyOf(OpCode op);

// --- Request header extension (observability) -------------------------
// A top-level Request may carry a trailing extension block after the
// base encoding: a magic u32, a u8 entry count, then tag/length/value
// entries (u8 tag, u8 length, `length` bytes). Receivers skip entries
// with unknown tags, so new extensions deploy without a protocol
// version bump; requests with no extension serialize byte-identically
// to the pre-extension format, so a non-tracing client is
// indistinguishable from a legacy one. Batch sub-requests never carry
// extensions (the top-level frame's context covers them).
inline constexpr uint32_t kRequestExtensionMagic = 0x4F425331;  // "OBS1".
inline constexpr uint8_t kExtensionTagTrace = 1;  // u64 trace id, u8 attempt.
// u64 store generation: stamped on mutating requests issued by read repair
// and the anti-entropy scrubber, so the receiving replica applies the op
// *at* the winner's generation (gen-gated; see the trailing `gen`
// parameter on ObjectStore's puts/deletes) instead of blindly bumping
// its own counter. Absent on ordinary client mutations.
inline constexpr uint8_t kExtensionTagStoreGen = 2;
// Zero-length flag on reads: the caller wants versioned replies. Live hits
// come back as kOk with an 8-byte little-endian generation appended to the
// payload; tombstones come back as kDeleted (payload = 8-byte generation)
// instead of masquerading as kNotFound. On a kBatch the flag covers every
// sub-read. Legacy readers never set it and see the pre-tombstone wire
// shapes byte-for-byte.
inline constexpr uint8_t kExtensionTagWantVersion = 3;
// Tag 4 is retired: readers skip it like any unknown tag, so an old
// client that still sends it gets the (only) binary kGetStats reply.
// Do not reuse it.

struct Request {
  OpCode op = OpCode::kGetMetadata;
  fs::InodeNum inode = fs::kInvalidInode;
  Selector selector = 0;
  uint32_t user = 0;
  uint32_t group = 0;
  uint32_t block = 0;
  Bytes payload;
  std::vector<Request> batch;  // Only for kBatch.

  // Observability extension (not part of the base encoding): the client
  // op's trace id (0 = untraced) and the 0-based transport retry
  // attempt. Filled by Deserialize when the frame carries a trace
  // entry; emitted by Serialize only when trace_id != 0.
  uint64_t trace_id = 0;
  uint8_t attempt = 0;

  // Tombstone extensions (also TLV-carried, so they ride the WAL via
  // Wal::Append's op.Serialize() and survive replay): an explicit store
  // generation for repair/scrub mutations, and the versioned-read flag.
  uint64_t store_gen = 0;
  bool has_store_gen = false;
  bool want_version = false;

  Bytes Serialize() const;
  /// Serializes with the given trace stamped, regardless of the struct's
  /// own trace fields (the channel layer's ambient-trace path).
  Bytes SerializeWithTrace(uint64_t trace_id, uint8_t attempt) const;
  static Result<Request> Deserialize(const Bytes& data);

  // Convenience constructors for the common shapes.
  static Request GetSuperblock(uint32_t user);
  static Request PutSuperblock(uint32_t user, Bytes payload);
  static Request GetMetadata(fs::InodeNum inode, Selector sel);
  static Request PutMetadata(fs::InodeNum inode, Selector sel, Bytes payload);
  static Request DeleteInodeMetadata(fs::InodeNum inode);
  static Request GetUserMetadata(fs::InodeNum inode, uint32_t user);
  static Request PutUserMetadata(fs::InodeNum inode, uint32_t user,
                                 Bytes payload);
  static Request GetData(fs::InodeNum inode, uint32_t block);
  static Request PutData(fs::InodeNum inode, uint32_t block, Bytes payload);
  static Request DeleteData(fs::InodeNum inode, uint32_t block);
  static Request DeleteInodeData(fs::InodeNum inode);
  static Request GetGroupKey(uint32_t group, uint32_t user);
  static Request PutGroupKey(uint32_t group, uint32_t user, Bytes payload);
  static Request DeleteGroupKey(uint32_t group, uint32_t user);
  /// The point verbs on one object; the named constructors above are
  /// these, spelled per family.
  static Request Get(const ObjectRef& ref);
  static Request Put(const ObjectRef& ref, Bytes payload);
  static Request Delete(const ObjectRef& ref);
  static Request Batch(std::vector<Request> requests);
  /// `prefix` filters the snapshot to metrics whose name starts with it
  /// (empty = full registry); it rides in the payload.
  static Request GetStats(std::string prefix = {});
  static Request GetTraces();

 private:
  void AppendTo(BinaryWriter* w) const;
  static Result<Request> ReadFrom(BinaryReader* r, int depth);
  static Status ReadExtensions(BinaryReader* r, Request* req);
};

/// The object a point get/put/delete addresses; nullopt for ranged
/// deletes, kBatch and admin ops.
std::optional<ObjectRef> RefOf(const Request& req);

/// The 64-bit routing coordinate of a request: which object family and
/// id the ring places. Inode-scoped ops route by inode (so all of a
/// file's metadata replicas, table copies, split blocks, and data
/// blocks colocate — one shard serves a whole path component);
/// superblocks route by user and group-key blobs by group, in disjoint
/// tag domains so user 7 and inode 7 never collide (inode numbers are
/// counter-allocated well below 2^61). kBatch and the admin ops have no
/// routing key; callers split batches per sub-op and pin admin ops.
uint64_t RoutingKeyOf(const Request& req);

enum class RespStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kBadRequest = 2,
  kError = 3,       // Transient server-side failure (fault injection,
                    // overload). Unlike kBadRequest the request was
                    // well-formed and was *not* executed; retrying it is
                    // the expected reaction.
  kWrongShard = 4,  // This daemon is not a placement replica for the
                    // op's routing key (ssp/placement.h): the client's
                    // cluster config is stale. Not executed. The sharded
                    // channel refreshes placement and retries once;
                    // anything else treats it as a definitive routing
                    // error, never a blind-retry target.
  kDeleted = 5,     // Versioned read hit a delete tombstone; the payload
                    // is the tombstone's 8-byte generation. Only emitted
                    // when the request carried kExtensionTagWantVersion —
                    // legacy readers still get plain kNotFound, so this
                    // status never reaches a pre-tombstone client.
  kNotModified = 6,  // Conditional get (DESIGN.md §19): the live blob's
                     // BlobDigest equals the digest the get carried, so
                     // no bytes follow. A versioned read's payload is the
                     // blob's 8-byte generation, as for kDeleted. Only
                     // emitted to a get that carried a digest.
};

/// One past the largest valid RespStatus (array sizing, metric labels).
inline constexpr size_t kNumRespStatuses =
    static_cast<size_t>(RespStatus::kNotModified) + 1;

/// A conditional get's payload: the first kBlobDigestSize bytes of the
/// SHA-256 of a blob the reader already holds. A get with a digest is
/// answered kNotModified when the live blob has it, and as a plain get
/// otherwise; a get payload of any other non-zero length is kBadRequest.
inline constexpr size_t kBlobDigestSize = 16;
Bytes BlobDigest(const Bytes& blob);

/// Stable metric-label name for a response status ("kNotFound", ...).
const char* RespStatusName(RespStatus status);

/// The one rule for what a read reply means to a client (DESIGN.md §11),
/// for single gets and each sub-response of a read batch alike: kOk is
/// OK, kNotFound is NotFound (the SSP holds no such object), kError is
/// Unavailable (the get was not executed; re-issuing it is safe), and
/// anything else is IoError. `what` names the object in the message.
Status ReadStatus(RespStatus status, const std::string& what);

struct Response {
  RespStatus status = RespStatus::kOk;
  Bytes payload;
  std::vector<Response> batch;

  bool ok() const { return status == RespStatus::kOk; }

  Bytes Serialize() const;
  static Result<Response> Deserialize(const Bytes& data);

  static Response Ok(Bytes payload = {}) {
    return Response{RespStatus::kOk, std::move(payload), {}};
  }
  static Response NotFound() { return Response{RespStatus::kNotFound, {}, {}}; }
  static Response BadRequest() {
    return Response{RespStatus::kBadRequest, {}, {}};
  }
  static Response Error() { return Response{RespStatus::kError, {}, {}}; }
  static Response WrongShard() {
    return Response{RespStatus::kWrongShard, {}, {}};
  }
  // Versioned-read replies (kExtensionTagWantVersion). A live hit is
  // kOk with the entry's generation appended to the blob as 8 bytes
  // little-endian; a tombstone is kDeleted whose payload is exactly that
  // 8-byte generation. DecodeVersioned below is the one inverse.
  static Response Versioned(Bytes blob, uint64_t gen);
  static Response Deleted(uint64_t gen);
  /// A conditional get's match: no payload, or with `gen` (a versioned
  /// read) the blob's 8-byte generation.
  static Response NotModified(std::optional<uint64_t> gen = std::nullopt);

 private:
  void AppendTo(BinaryWriter* w) const;
  static Result<Response> ReadFrom(BinaryReader* r, int depth);
};

/// One replica's decoded answer to a versioned read.
struct VersionedReply {
  /// kOk, kNotFound, kDeleted or kNotModified (a live blob whose bytes
  /// are the ones the conditional get named by digest).
  RespStatus status = RespStatus::kNotFound;
  Bytes payload;     // Object bytes (kOk only), generation suffix stripped.
  uint64_t gen = 0;  // The replica's per-key store generation.

  bool live() const {
    return status == RespStatus::kOk || status == RespStatus::kNotModified;
  }
};

/// Decodes a versioned-read reply; nullopt for statuses that are no
/// answer about the object (kError, kWrongShard, kBadRequest).
std::optional<VersionedReply> DecodeVersioned(const Response& resp);

/// The freshness rule over one key's versioned replies (DESIGN.md §16).
struct Freshest {
  uint64_t gen = 0;      // Highest generation among live/deleted replies.
  bool deleted = false;  // A tombstone holds `gen`: tombstones win ties.
  /// Index of the live winner: a live reply at `gen` whose bytes every
  /// other live reply at `gen` matches. Unset when a tombstone wins, no
  /// live reply holds `gen`, or same-generation replies diverge.
  std::optional<size_t> live;
};

/// Applies the rule to replies indexed by replica position; unset
/// entries (replicas that gave no usable answer) are skipped. `asked` is
/// the digest a conditional get carried: a kNotModified reply's bytes
/// are the ones it names, so it matches a kOk reply whose BlobDigest is
/// `asked` (DESIGN.md §19).
Freshest SettleFreshest(
    const std::vector<std::optional<VersionedReply>>& replies,
    const Bytes& asked = {});

/// A fix a settled read owes the replier at replica position `pos`.
struct Repair {
  size_t pos = 0;
  Request fix;
};

/// The one repair rule, for read repair and the scrubber (DESIGN.md
/// §16). A tombstone winner (`deleted`) is re-deleted onto live repliers
/// only (absence already agrees with it). A live winner `payload` is
/// re-put on every replier not holding exactly it at `gen`; a
/// kNotModified replier holds the bytes whose digest (`asked`) the get
/// carried. Fixes carry `gen` (when non-zero), so the receiving
/// store gen-gates them. Unset replies get nothing.
std::vector<Repair> RepairsFor(
    const ObjectRef& ref,
    const std::vector<std::optional<VersionedReply>>& replies, bool deleted,
    const Bytes& payload, uint64_t gen, const Bytes& asked = {});

}  // namespace sharoes::ssp

#endif  // SHAROES_SSP_MESSAGE_H_
