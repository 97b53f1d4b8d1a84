// SharoesClient: the SHAROES client filesystem (paper §IV-A).
//
// Implements the FsClient hooks (core/fs_client.h) over the untrusted SSP
// using the full CAP machinery: in-band key distribution through
// directory-table rows, per-class metadata replicas, per-CAP table copies,
// split-point blocks, per-user superblocks, group key blocks, and
// immediate revocation on chmod (the file is re-encrypted under fresh
// keys during the chmod, paper §IV-A.1). On top of the shared front end
// it keeps its own data path (Merkle-checked chunk blocks, revalidation
// candidates, rollback detection) and the write-behind stage whose flush
// is the front end's read barrier.
//
// Costs: every SSP exchange is one round trip on the simulated WAN;
// every cryptographic primitive charges the calibrated crypto cost; the
// fixed client-side handling cost per logical operation is charged to
// OTHER by the front end. The decomposition matches the paper's Figure 13.

#ifndef SHAROES_CORE_CLIENT_H_
#define SHAROES_CORE_CLIENT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "core/cache.h"
#include "core/file_versions.h"
#include "core/fs_client.h"
#include "core/object_codec.h"
#include "ssp/ssp_server.h"

namespace sharoes::core {

struct ClientOptions {
  Scheme scheme = Scheme::kScheme2;
  size_t cache_bytes = 64ull << 20;
  /// Group id attached to newly created objects.
  fs::GroupId default_group = fs::kInvalidGroup;
  /// Batched read path (DESIGN.md §11): data blocks fetched per batched
  /// round trip. Above 0, ResolvePath coalesces each level's metadata +
  /// table fetch into one kBatch round trip and FetchFileContent fetches
  /// data blocks in readahead windows of this size, which also bounds any
  /// single data batch, so one huge file cannot produce an unbounded SSP
  /// request. 0 turns batching off: one RPC per object/block (kept as the
  /// benchmark comparator for the round-trip win; see bench_network_sweep).
  size_t readahead_blocks = 32;
  /// Write-behind batching (DESIGN.md §12), the mutation-side mirror of
  /// the batched read path: the mutating sub-ops a logical op produces (path
  /// renders, metadata objects, 4 KiB data blocks) are staged
  /// client-side and shipped as one kBatch at the next flush point —
  /// Close, Fsync(), the end of Unlink/Rmdir/RefreshDir and of a
  /// revoking Chmod, this staged-sub-op threshold, kWriteBatchBytes, or
  /// any read RPC (the read barrier that preserves read-your-writes). So
  /// Create, Mkdir, Write, Rename and a widening Chmod stage, and a
  /// create + WriteFile is one round trip. 0 disables staging: every
  /// logical op pays its own round trips immediately (the paper's per-op
  /// wire shape, kept as the benchmark comparator). With staging on,
  /// errors for a staged op surface at its flush point; a transient
  /// error there means "still staged, will apply at the next flush
  /// point", also for the op that ends at it. Sub-ops staged but never
  /// flushed (client destroyed without Close/Fsync) are dropped — the
  /// same contract as an OS page cache.
  size_t write_batch_ops = 16;
};

/// Staged-payload byte bound that forces a flush regardless of
/// write_batch_ops (only meaningful with staging on), so a run of large
/// data blocks cannot grow one batch without limit.
inline constexpr size_t kWriteBatchBytes = 1 << 20;

class SharoesClient : public FsClient {
 public:
  /// `engine`, `identity`, `conn` must outlive the client. `conn` is the
  /// one way to the SSP: an in-process connection, a RetryingConnection
  /// to one daemon, or a ShardedChannel over a cluster.
  SharoesClient(fs::UserId uid, crypto::RsaPrivateKey user_private_key,
                const IdentityDirectory* identity, ssp::SspChannel* conn,
                crypto::CryptoEngine* engine, const ClientOptions& options);

  /// Re-renders every table copy of a directory (owner or writer CAP
  /// required). Used after group-key rotation so split blocks are
  /// re-wrapped under the fresh group key.
  Status RefreshDir(const std::string& path);

  /// Packs read-only sub-ops (kGet*) into one kBatch round trip and
  /// surfaces the per-sub-op responses — statuses are NOT collapsed into
  /// one verdict: a kNotFound sub-response is a data point (e.g. a
  /// speculative readahead past EOF), not a failure. Fails only when the
  /// batch envelope itself fails: a transient envelope kError maps to
  /// Unavailable (safe to re-issue — every read is idempotent). A single
  /// sub-op skips the batch wrapper and keeps the legacy wire shape.
  /// Mutations are rejected; they go through the all-or-error write path.
  Result<std::vector<ssp::Response>> MultiGet(std::vector<ssp::Request> gets);

  const ClientOptions& options() const { return options_; }

  /// Drops all cached cleartext, revalidation candidates included
  /// (forces re-fetch + re-decrypt; used by benchmarks to separate
  /// warm/cold behaviour).
  void DropCaches() override;

 private:
  /// A chunk block as the client caches it under "d|<inode>|<block>":
  /// its plaintext and AEAD tag (the block's Merkle leaf), so a cached
  /// chunk always comes with the tag the root check needs. A block opened
  /// from fetched wire also keeps that wire's ssp::BlobDigest and header,
  /// which let a re-open revalidate it instead of downloading it again
  /// (DESIGN.md §19); a block this client sealed carries no digest.
  struct OpenedBlock {
    Bytes chunk;
    Bytes tag;
    Bytes digest;
    ObjectCodec::DataBlockHeader header;
    size_t wire_size = 0;  // Its cache charge.
  };
  /// A metadata view decoded from fetched replica wire, as the client
  /// keeps it under "v|<inode>|<sel>" beside the view's "m|" entry: the
  /// wire's ssp::BlobDigest and the ref's MEK and MVK. A re-open
  /// (InvalidateInode) moves the view in, and the entry becomes a
  /// revalidation candidate (DESIGN.md §19).
  struct FetchedView {
    std::shared_ptr<const MetadataView> view;  // Null until a re-open.
    Bytes digest;
    crypto::SymmetricKey mek;
    crypto::VerifyKey mvk;
    size_t wire_size = 0;  // The view's cache charge.
  };
  struct Node {
    PlainRef ref;
    MetadataView view;
    /// The file's descriptor (block 0, cached under "d|<inode>|0") once
    /// ResolvePath(kData) found or fetched it, handed on to
    /// FetchFileContent.
    std::shared_ptr<const DataDescriptor> desc;
    /// The chunk blocks the same fetch opened, by block index: reassembly
    /// takes them from here, so a read never depends on the cache having
    /// kept them.
    std::map<uint32_t, std::shared_ptr<const OpenedBlock>> window;
    /// The revalidation candidates this read asked for by digest
    /// (DataGet), by block index.
    std::map<uint32_t, std::shared_ptr<const OpenedBlock>> candidates;
    /// The blocks in `window` this read did not download: cached ones and
    /// revalidated candidates. A reassembly that fails its root check
    /// re-asks them once.
    std::set<uint32_t> reused;
    /// A directory's table head and the buckets the same fetch opened, by
    /// index: a lookup takes them from here, so a descent never depends on
    /// the cache having kept them.
    std::optional<TableHead> head;
    std::map<uint32_t, std::shared_ptr<const DecodedTable>> buckets;
  };
  /// What the caller of ResolvePath will need at the final level, so the
  /// descent's last fetch can speculatively batch it in (0 extra round
  /// trips; unneeded sub-gets come back as harmless kNotFound).
  enum class ReadIntent {
    kNone,   // Just the node (Getattr, Write, ...).
    kData,   // The file's first data blocks too (Read).
    kTable,  // The directory's table copy too (Readdir, rmdir check).
  };

  /// One stored table (a copy or the master) as fetched: the head and the
  /// wire of every bucket asked for, by index.
  struct TableRead {
    TableHead head;
    std::map<uint32_t, Bytes> wires;
  };
  /// The decoded buckets of this client's copy of a directory that a
  /// lookup or a listing needs, with the copy's head.
  struct TableSlice {
    TableHead head;
    std::vector<std::shared_ptr<const DecodedTable>> buckets;
  };

  // --- FsClient hooks (fs_client.h) ---
  Status OpenSuperblock() override;
  /// A file's size is the locally cached descriptor's, when there is one:
  /// sizes live in the signed data descriptor, not in metadata (plain
  /// writers hold no MSK — DESIGN.md §5).
  Result<fs::InodeAttrs> Stat(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<Bytes> ReadFile(const std::string& path) override;
  Result<fs::InodeNum> OpenForWrite(const std::string& path) override;
  Status FlushBuffer(const std::string& path, const WriteBuffer& buf) override;
  Status CreateObject(const std::string& path, fs::FileType type,
                      const CreateOptions& opts) override;
  Status RemoveObject(const std::string& path, fs::FileType type) override;
  Status RenameEntry(const std::string& from, const fs::SplitParent& src,
                     const std::string& to,
                     const fs::SplitParent& dst) override;
  Status ChangeMode(const std::string& path, fs::Mode mode) override;
  /// A re-open keeps the inode's views and chunk blocks opened from
  /// fetched wire as revalidation candidates (DESIGN.md §19); what it
  /// built or sealed itself is dropped.
  void InvalidateInode(fs::InodeNum inode) override {
    InvalidateInode(inode, /*keep_candidates=*/true);
  }
  /// Ships pending_writes_ as one kBatch (the write-behind stage's flush
  /// point). Clears the stage on success and on definitive rejection;
  /// keeps it on Unavailable (the ops are idempotent, so the next flush
  /// replays them safely). OK while nothing is staged or while the
  /// stage's own batch is on the wire.
  Status FlushStaged() override;

  // --- Resolution ---
  Result<Node> ResolvePath(const std::string& path,
                           ReadIntent intent = ReadIntent::kNone);
  /// The node at `ref`, its view from the cache or the SSP: by digest
  /// when a re-open left a candidate opened under this same ref (inode,
  /// selector, MEK, MVK), which a kNotModified reply takes without a
  /// decrypt or a verify. With
  /// batching on (readahead_blocks > 0) the view fetch is coalesced with
  /// this level's other likely-needed objects (with want_table, the
  /// table's head and probe window when the view or the head is not
  /// cached; with want_data, the file's first data window) into one
  /// round trip. The extra objects are decoded into the cache
  /// best-effort; a failure there simply surfaces later on the
  /// authoritative path (FetchTable / FetchFileContent), keeping error
  /// semantics in one place. Batching off adds no extra gets.
  Result<Node> FetchNode(const PlainRef& ref, bool want_table,
                         bool want_data);
  /// Takes a read's first data window from `resps`, the replies to the
  /// gets for `blocks` (FirstDataWindow's list) into `node`. Block 0,
  /// when listed, is opened strictly: its descriptor is verified into
  /// node->desc and cached, and a failure is returned. The chunk blocks
  /// the descriptor validates go into node->window best-effort: blocks
  /// past its block_count (speculative overfetch) and non-ok or invalid
  /// replies are skipped, so the strict path re-fetches and reports; a
  /// candidate that fails its checks is dropped, so that re-fetch asks
  /// for the block unconditionally.
  Status TakeDataWindow(Node* node, const std::vector<uint32_t>& blocks,
                        const ssp::Response* resps);
  /// The bucket of a copy under `head` that a lookup of `name` reads, or
  /// every bucket (`name` null).
  static std::vector<uint32_t> BucketsFor(const TableHead& head,
                                          const crypto::SymmetricKey& key,
                                          const std::string* name);
  /// Takes what FetchNode's batch fetched of `dir`'s table into
  /// dir->head and dir->buckets and the cache, best-effort: its `head` and
  /// the buckets `blocks`. A failure surfaces on the strict path,
  /// FetchTable.
  void TakeTableProbe(Node* dir, const ssp::Response& head,
                      const std::vector<uint32_t>& blocks,
                      const ssp::Response* resps);
  /// `dir`'s table through this client's CAP: its head and the bucket a
  /// lookup of `name` needs, or every bucket (`name` null). Buckets come
  /// decoded from the cache or one batch, and go into it: the one decode
  /// of a table copy.
  Result<TableSlice> FetchTable(const Node& dir, const std::string* name);
  /// Reads one stored table of `inode` (copy `sel`, or the master): its
  /// head, unless `head` is given, and the buckets `want(head)` lists.
  /// Without a head the first batch also asks for the probe window. A
  /// bucket that is missing or of another depth than a given head
  /// re-fetches the head once. Against a head fetched in the same read, a
  /// missing bucket is Corruption and one of another depth is returned:
  /// its decode keeps the rows that hash to it at the head's depth.
  Result<TableRead> ReadTable(
      fs::InodeNum inode, Selector sel, const crypto::SymmetricKey& key,
      const crypto::VerifyKey& dvk, std::optional<TableHead> head,
      const std::function<std::vector<uint32_t>(const TableHead&)>& want);
  /// The child's PlainRef from a row of `parent`'s table; a split row's
  /// unwrapped ref is cached under the parent (see UserSplitCacheKey).
  Result<PlainRef> ResolveRowRef(fs::InodeNum parent, const RowRef& row);
  Result<GroupSecret> FetchGroupSecret(fs::GroupId gid);

  // --- Mutation helpers ---
  /// Loads the parent directory as a writer: node + bundle-ish context.
  struct WriterDirContext {
    Node node;
    StoredMaster master;
    ObjectKeyBundle bundle;  // Synthesized from the writer view.
    OwnershipInfo ownership;
  };
  Result<WriterDirContext> LoadDirForWrite(const std::string& dir_path);
  /// Renders a directory's tables after an edit of its master: only the
  /// buckets holding the `changed` names, unless the edit resizes the
  /// tables or `changed` is null (a rekey), which renders every head and
  /// bucket. Appends the SSP requests to include in a batch, and
  /// refreshes this client's cached view of the directory.
  Status RenderDirTables(const WriterDirContext& ctx,
                         std::vector<ssp::Request>* out,
                         const std::vector<std::string>* changed);
  /// Ships a logical op's mutating sub-ops. With write-behind off this
  /// is one immediate batched round trip (ExecuteBatchNow); with it on,
  /// the requests are staged into pending_writes_ and shipped at the
  /// next flush point, so several logical ops share one round trip.
  Status ExecuteBatch(std::vector<ssp::Request> requests);
  /// The one rule for a batch whose fate is decided (`outcome`): an
  /// acknowledged batch makes its pending versions the floor; a dropped
  /// one forgets them and invalidates every inode its sub-ops name, so
  /// the client keeps only what the SSP acknowledged.
  Status SettleBatch(const std::vector<ssp::Request>& requests,
                     Status outcome);

  /// Fetches the master table of a directory the caller can write.
  Result<StoredMaster> FetchMaster(const Node& dir,
                                   const ObjectKeyBundle& bundle);

  std::string ViewCacheKey(fs::InodeNum inode, Selector sel) const;
  /// Drops what is cached about `inode` ("m|", "t|", "d|", "n|"
  /// under it, and its "M|" master table, so a writer re-renders a
  /// directory from the master the SSP holds) and the split refs of its
  /// children ("u|"/"g|" under it).
  /// The inode's own split ref belongs to its parent's row and survives,
  /// and so do the views and chunk blocks it opened from fetched wire:
  /// the views move into their "v|" entries and the chunks to "c|" keys,
  /// as revalidation candidates (DESIGN.md §19), unless `keep_candidates`
  /// is false (a removed inode), which drops them all.
  void InvalidateInode(fs::InodeNum inode, bool keep_candidates);

  // --- Cache-key chokepoint ---
  // Every cache key is built here (and only here) so keying bugs — like
  // an unnormalized path aliasing "/shared//x" and "/shared/x" into
  // distinct negative dentries — cannot creep back in per call site.
  // Prefixes: "d|" data block (descriptor or opened chunk), "c|" a
  // chunk's revalidation candidate, "v|" a fetched view's digest (and,
  // after a re-open, the view as a candidate), "t|" table
  // copy head and buckets, "M|" master table, "u|"/"g|" split blocks,
  // "n|" negative dentry ("m|" view keys live in ViewCacheKey, which
  // needs Scheme state). Split keys lead with the parent
  // inode ("<parent>|<child>|<id>"): the unwrapped ref is part of the
  // parent's row and dies with the parent's table, not with the child.
  static std::string DataCacheKey(fs::InodeNum inode, uint32_t block);
  static std::string CandidateCacheKey(fs::InodeNum inode, uint32_t block);
  static std::string FetchedViewCacheKey(fs::InodeNum inode, Selector sel);
  /// A table copy's keys: "t|<inode>|<sel>|h" its head, and
  /// "t|<inode>|<sel>|<depth>.<bucket>" each decoded bucket, so a bucket
  /// cached under one depth never answers a head of another.
  static std::string TableHeadCacheKey(fs::InodeNum inode, Selector sel);
  static std::string BucketCacheKey(fs::InodeNum inode, Selector sel,
                                    uint8_t depth, uint32_t bucket);
  static std::string MasterCacheKey(fs::InodeNum inode);
  static std::string UserSplitCacheKey(fs::InodeNum parent,
                                       fs::InodeNum child, fs::UserId uid);
  static std::string GroupSplitCacheKey(fs::InodeNum parent,
                                        fs::InodeNum child, uint32_t id);
  /// `name` must be a single path component (no '/'); the directory
  /// identity comes from the already-resolved inode, so alias spellings
  /// of the directory path collapse to one key.
  static std::string NegDentryCacheKey(fs::InodeNum dir_inode,
                                       const std::string& name);

  /// The chunks a cold read asks for together with block 0, before it
  /// knows the block count: min(readahead_blocks, 4). A write lays out
  /// more chunks than a packed file has only up to this many
  /// (GrownChunkEnds), so short chunks never cost a cold reader a round
  /// trip.
  size_t ColdWindowChunks() const;
  /// The data blocks a read batches into its first fetch: the uncached
  /// ones of the first ColdWindowChunks() chunks. With
  /// `desc` (block 0) null the window is speculative and starts with
  /// block 0; otherwise its block_count caps it.
  std::vector<uint32_t> FirstDataWindow(fs::InodeNum inode,
                                        const DataDescriptor* desc) const;

  // --- Data path ---
  /// The get of data block `block` of `node`: conditional, carrying the
  /// digest of the block's revalidation candidate ("c|" key, left there
  /// by InvalidateInode), when there is one; the candidate is noted in
  /// node->candidates.
  ssp::Request DataGet(Node* node, uint32_t block);
  /// Fetches `blocks` of `node` in readahead windows (one batched round
  /// trip each) and opens every reply strictly (OpenDataReply). A
  /// candidate that fails its checks is fetched again without a digest,
  /// once.
  Status FetchBlocks(Node* node, const std::vector<uint32_t>& blocks);
  Result<Bytes> FetchFileContent(Node node);
  /// The error of a read that found data block `block` of `ref` missing:
  /// the view's NotFound when the file is gone, else Corruption.
  Status DataDropped(const PlainRef& ref, const std::string& block);
  /// The file's content from node->window, checked against the
  /// descriptor's tag root and size.
  static Result<Bytes> Reassemble(const Node& node);
  /// The one decode of a fetched data block of `node`, after
  /// CheckBlockHeader. Block 0 is verified into node->desc, and cached. A
  /// chunk block is opened, with its tag, wire digest and header, into
  /// node->window and the cache.
  Status OpenDataBlock(Node* node, uint32_t index, const Bytes& wire);
  /// The one reply rule of a data get: kNotModified to a conditional get
  /// takes the candidate (TakeCandidate), kOk opens the wire
  /// (OpenDataBlock), anything else is ssp::ReadStatus's error.
  Status OpenDataReply(Node* node, uint32_t index, const ssp::Response& resp);
  /// Takes node->candidates[index] into node->window after the header
  /// checks a fetched block passes; only the AEAD open is skipped, its
  /// bytes being ones already opened under the same AAD. A candidate that
  /// fails is dropped.
  Status TakeCandidate(Node* node, uint32_t index);
  /// The header rule of every data block, fetched or revalidated: a chunk's
  /// write generation matches node.desc, and its key generation is the
  /// view's dek_gen (a block under a later generation was re-encrypted by
  /// a revoking chmod this CAP no longer has the key for).
  static Status CheckBlockHeader(const Node& node, uint32_t index,
                                 const ObjectCodec::DataBlockHeader& h);
  /// The chunk ends of a write that grows a file from `old_desc` (whose
  /// cached chunk blocks are `old`, null where not cached, indexed by
  /// block) to `size` bytes (DESIGN.md §13): RepackTail of the old
  /// chunks' ends under the bound max(ColdWindowChunks(),
  /// ChunkCount(size)); the packed layout when those ends are unknown.
  std::vector<size_t> GrownChunkEnds(
      const DataDescriptor& old_desc,
      const std::vector<std::shared_ptr<const OpenedBlock>>& old,
      size_t size) const;
  /// The one client write of file data: renders `content` as the chunks
  /// ending at `chunk_ends` through the codec at the inode's next write
  /// generation. Blocks in `kept` stay as stored; with `kept` null the
  /// inode's old blocks are deleted first.
  Result<ObjectCodec::RenderedFile> RenderFileWrite(
      fs::InodeNum inode, const Bytes& content,
      const std::vector<size_t>& chunk_ends,
      const crypto::SymmetricKey& dek, const crypto::SigningKey& dsk,
      uint32_t key_gen,
      const std::map<uint32_t, ObjectCodec::KeptBlock>* kept,
      std::vector<ssp::Request>* puts);
  /// Ships a file write's batch through ExecuteBatch. The new version is
  /// pending and its sealed blocks are cached (read-your-writes) at once;
  /// the version becomes the rollback floor only when the SSP
  /// acknowledges the batch (at once with staging off, at the flush that
  /// carries it with staging on), and a dropped batch takes both back
  /// (SettleBatch).
  Status CommitFileWrite(fs::InodeNum inode, ObjectCodec::RenderedFile file,
                         std::vector<ssp::Request> puts);
  /// The next write generation for an inode (FileVersions::Next), after
  /// a peek at the stored header when versions_ says one is needed.
  Result<uint64_t> NextWriteGen(fs::InodeNum inode);

  ObjectCodec codec_;
  ClientOptions options_;
  /// Names proven absent by a full descent, keyed "n|<dir_inode>|<name>"
  /// (hits/misses surface as "client.dentry.neg.*"). Separate from the
  /// main cache so tiny negative entries are not evicted by data blocks
  /// and vice versa. Holds kNegativeDentryBytes and is invalidated by the
  /// same InvalidateInode / table-rerender discipline as positive entries.
  LruCache neg_cache_;
  SuperblockPayload superblock_;
  std::map<fs::GroupId, GroupSecret> group_secrets_;
  /// Write-behind stage (DESIGN.md §12): mutating sub-ops accepted by
  /// ExecuteBatch but not yet shipped, in client submission order (the
  /// server applies batch sub-ops in order, so staging preserves the
  /// unbatched apply order). Flushed at every flush point that
  /// ClientOptions::write_batch_ops lists.
  std::vector<ssp::Request> pending_writes_;
  size_t pending_write_bytes_ = 0;
  /// True while FlushStaged is on the wire: its own kBatch (and
  /// any read the flush path issues) must not re-enter the barrier.
  bool flushing_pending_ = false;
  /// Per-inode version state: the rollback floor (it survives
  /// DropCaches), pending versions and the must-peek marks.
  FileVersions versions_;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_CLIENT_H_
