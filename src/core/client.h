// SharoesClient: the SHAROES client filesystem (paper §IV-A).
//
// Implements the FsClient interface over the untrusted SSP using the full
// CAP machinery: in-band key distribution through directory-table rows,
// per-class metadata replicas, per-CAP table copies, split-point blocks,
// per-user superblocks, group key blocks, and immediate or lazy
// revocation on chmod.
//
// Costs: every SSP exchange is one round trip on the simulated WAN;
// every cryptographic primitive charges the calibrated crypto cost; the
// fixed client-side handling cost per logical operation is charged to
// OTHER. The decomposition matches the paper's Figure 13.

#ifndef SHAROES_CORE_CLIENT_H_
#define SHAROES_CORE_CLIENT_H_

#include <map>
#include <memory>
#include <optional>

#include "core/cache.h"
#include "core/fs_client.h"
#include "core/object_codec.h"
#include "core/retrying_connection.h"
#include "net/tcp_stream.h"
#include "obs/trace.h"
#include "ssp/ssp_server.h"

namespace sharoes::core {

/// Revocation strategy on permission-narrowing chmod (paper §IV-A.1).
enum class RevocationMode {
  kImmediate,  // Rotate keys and re-encrypt data during the chmod.
  kLazy,       // Record the next key; the next writer rotates (Plutus).
};

struct ClientOptions {
  Scheme scheme = Scheme::kScheme2;
  RevocationMode revocation = RevocationMode::kImmediate;
  size_t cache_bytes = 64ull << 20;
  size_t block_size = 4096;
  /// Group id attached to newly created objects.
  fs::GroupId default_group = fs::kInvalidGroup;
  /// Fixed per-operation client handling cost ("OTHER" in Figure 13).
  double client_overhead_ms = 5.0;
  /// SUNDR-style freshness tracking (paper §VIII future work): reject
  /// reads whose write generation regresses below what this client has
  /// already observed for the inode.
  bool track_freshness = true;
  /// Batched read path (DESIGN.md §11): ResolvePath coalesces each
  /// level's metadata + table fetch into one kBatch round trip, and
  /// FetchFileContent fetches data blocks in readahead windows. Off =
  /// one RPC per object/block (kept as the benchmark comparator for the
  /// round-trip win; see bench_network_sweep).
  bool batch_reads = true;
  /// Data blocks fetched per batched round trip (min 1; only meaningful
  /// with batch_reads). Bounds both the readahead window and the size of
  /// any single data batch, so one huge file cannot produce an unbounded
  /// SSP request.
  size_t readahead_blocks = 32;
  /// Byte budget of the negative dentry cache: names a descent proved
  /// absent, so repeated misses answer locally instead of re-paying the
  /// table fetch. 0 disables. Invalidated by the same InvalidateInode /
  /// table-rerender discipline as positive entries.
  size_t negative_dentry_bytes = 64 << 10;
  /// Write-behind batching (DESIGN.md §12), the mutation-side mirror of
  /// batch_reads: the mutating sub-ops a logical op produces (path
  /// renders, metadata objects, 4 KiB data blocks) are staged
  /// client-side and shipped as one kBatch at the next flush point —
  /// Close, Fsync(), this staged-sub-op threshold, write_batch_bytes,
  /// or any read RPC (the read barrier that preserves read-your-writes).
  /// 0 disables staging: every logical op pays its own round trips
  /// immediately (the pre-batching wire shape, kept as the benchmark
  /// comparator and the library default). With staging on, errors for a
  /// staged op surface at its flush point, and sub-ops staged but never
  /// flushed (client destroyed without Close/Fsync) are dropped — the
  /// same contract as an OS page cache.
  size_t write_batch_ops = 0;
  /// Staged-payload byte bound that forces a flush regardless of
  /// write_batch_ops (only meaningful with staging on), so a run of
  /// large data blocks cannot grow one batch without limit.
  size_t write_batch_bytes = 1 << 20;
  /// Transport fault tolerance for real-socket deployments: callers that
  /// reach the SSP over TCP build a RetryingConnection from these knobs
  /// and arm the stream deadlines below (see tools/sharoes_cli.cc, which
  /// maps its --retries/--*-timeout-ms flags here). The in-process
  /// simulated channel never fails, so benchmarks ignore them.
  RetryOptions transport_retry;
  net::TcpTimeouts transport_timeouts;
  /// Path of a cluster config file (ssp/placement.h). Non-empty makes
  /// the client build and own a core::ShardedChannel over the listed
  /// daemons at Mount() — consistent-hash routing, K-way replicated
  /// quorum writes/reads, placement refresh on kWrongShard — instead of
  /// using the single `conn` passed to the constructor (which may then
  /// be null). transport_retry becomes the channel's quorum round
  /// budget (ShardedChannelOptions::FromRetry) and transport_timeouts
  /// its per-node deadlines; maps from `--cluster` in the tools.
  std::string cluster;
};

class SharoesClient : public FsClient {
 public:
  /// `engine`, `identity`, `conn` must outlive the client. `conn` may be
  /// null when options.cluster names a cluster config — Mount() then
  /// builds and owns a sharded channel over the configured daemons.
  SharoesClient(fs::UserId uid, crypto::RsaPrivateKey user_private_key,
                const IdentityDirectory* identity, ssp::SspChannel* conn,
                crypto::CryptoEngine* engine, const ClientOptions& options);

  Status Mount() override;
  Result<fs::InodeAttrs> Getattr(const std::string& path) override;
  Status Mkdir(const std::string& path, const CreateOptions& opts) override;
  Status Create(const std::string& path, const CreateOptions& opts) override;
  Result<Bytes> Read(const std::string& path) override;
  Status Write(const std::string& path, const Bytes& content) override;
  Status Close(const std::string& path) override;
  Result<std::vector<std::string>> Readdir(const std::string& path) override;
  Status Chmod(const std::string& path, fs::Mode mode) override;
  Status Unlink(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;

  /// Re-renders every table copy of a directory (owner or writer CAP
  /// required). Used after group-key rotation so split blocks are
  /// re-wrapped under the fresh group key.
  Status RefreshDir(const std::string& path);

  /// Drains the write-behind stage (ClientOptions::write_batch_ops):
  /// every staged mutating sub-op ships as one kBatch and the combined
  /// outcome is returned. A no-op (OK) when nothing is staged or staging
  /// is off, so callers may fsync unconditionally. On a transient
  /// failure (Unavailable / DeadlineExceeded) the staged ops are KEPT
  /// for the next flush attempt — replaying them is safe because every
  /// sub-op is idempotent — so a transient fault can never silently
  /// drop an acked-to-the-application write.
  Status Fsync() override;

  /// Packs read-only sub-ops (kGet*) into one kBatch round trip and
  /// surfaces the per-sub-op responses — statuses are NOT collapsed into
  /// one verdict: a kNotFound sub-response is a data point (e.g. a
  /// speculative readahead past EOF), not a failure. Fails only when the
  /// batch envelope itself fails: a transient envelope kError maps to
  /// Unavailable (safe to re-issue — every read is idempotent). A single
  /// sub-op skips the batch wrapper and keeps the legacy wire shape.
  /// Mutations are rejected; they go through the all-or-error write path.
  Result<std::vector<ssp::Response>> MultiGet(std::vector<ssp::Request> gets);

  /// SSP round trips this client has issued (every Call on the channel,
  /// batched or not). Also counted process-wide as
  /// "client.rpc.round_trips" with per-op histograms
  /// "client.rpc.round_trips.<Op>" in the global registry. Against a
  /// cluster this counts LOGICAL round trips — a batch fanned out to
  /// several shards in parallel inside one Call is one round trip (the
  /// op's WAN cost is the max per shard, not the sum); the fan-out
  /// width is its own histogram, "client.rpc.shard_fanout".
  uint64_t rpc_round_trips() const { return rpc_round_trips_; }

  LruCache& cache() { return cache_; }
  const ClientOptions& options() const { return options_; }
  fs::UserId uid() const { return uid_; }

  /// Drops all cached cleartext (forces re-fetch + re-decrypt; used by
  /// benchmarks to separate warm/cold behaviour).
  void DropCaches();
  /// Drops only the target object's cached state (metadata, tables, data)
  /// while keeping the resolved path prefix warm — models a dcache-warm
  /// client re-fetching one object, the unit the paper's Figure 13 times.
  Status EvictPath(const std::string& path);

 private:
  struct Node {
    PlainRef ref;
    MetadataView view;
  };
  struct WriteBuffer {
    fs::InodeNum inode;
    Bytes content;
    bool dirty = false;
  };

  /// What the caller of ResolvePath will need at the final level, so the
  /// descent's last fetch can speculatively batch it in (0 extra round
  /// trips; unneeded sub-gets come back as harmless kNotFound).
  enum class ReadIntent {
    kNone,   // Just the node (Getattr, Write, ...).
    kData,   // The file's first data blocks too (Read).
    kTable,  // The directory's table copy too (Readdir, rmdir check).
  };

  /// RAII around one public client op: the trace span plus a sample in
  /// "client.rpc.round_trips.<op>" of how many SSP round trips the op
  /// issued — with batching, round trips are the op's WAN cost, so they
  /// are first-class observable next to latency.
  class OpScope {
   public:
    OpScope(SharoesClient* client, const char* op);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    SharoesClient* client_;
    obs::ClientSpan span_;
    uint64_t start_trips_;
    obs::Histogram* trips_hist_;
  };

  // --- Resolution ---
  Result<Node> ResolvePath(const std::string& path,
                           ReadIntent intent = ReadIntent::kNone);
  Result<Node> FetchNode(const PlainRef& ref);
  /// FetchNode, but when batch_reads is on the view fetch is coalesced
  /// with this level's other likely-needed objects (the directory table
  /// when want_table, the file's first data blocks when want_data) into
  /// one round trip. The extra objects are decoded into the cache
  /// best-effort; a failure there simply surfaces later on the
  /// authoritative path (FetchTable / FetchFileContent), keeping error
  /// semantics in one place.
  Result<Node> FetchNodeBatched(const PlainRef& ref, bool want_table,
                                bool want_data);
  Result<MetadataView> FetchView(const PlainRef& ref);
  /// Decodes a fetched metadata replica and fills the cache (the shared
  /// tail of FetchView and FetchNodeBatched).
  Result<MetadataView> DecodeAndCacheView(const PlainRef& ref,
                                          const Bytes& payload);
  /// Best-effort decode + cache-fill of fetched data-block wires for
  /// `node`: blocks past the descriptor's block_count (speculative
  /// overfetch) and non-ok sub-responses are skipped; validation errors
  /// drop the block so the strict path re-fetches and reports.
  void CacheFetchedDataBlocks(const Node& node,
                              const std::vector<uint32_t>& indices,
                              const ssp::Response* resps);
  Result<std::shared_ptr<const DecodedTable>> FetchTable(const Node& dir);
  Result<PlainRef> ResolveRowRef(const RowRef& row);
  Result<GroupSecret> FetchGroupSecret(fs::GroupId gid);

  // --- Mutation helpers ---
  /// Generates a full key bundle for a new object.
  ObjectKeyBundle GenerateBundle(const OwnershipInfo& info,
                                 const std::vector<ReplicaSpec>& specs);
  /// Common mkdir/create implementation.
  Status CreateObject(const std::string& path, fs::FileType type,
                      const CreateOptions& opts);
  /// Common unlink/rmdir implementation.
  Status RemoveObject(const std::string& path, fs::FileType type);
  /// Loads the parent directory as a writer: node + bundle-ish context.
  struct WriterDirContext {
    Node node;
    MasterTable master;
    ObjectKeyBundle bundle;  // Synthesized from the writer view.
    OwnershipInfo ownership;
  };
  Result<WriterDirContext> LoadDirForWrite(const std::string& dir_path);
  /// Rebuilds every table copy (and the master) of a directory, returning
  /// the SSP put requests + split blocks to include in a batch.
  Status RenderDirTables(const WriterDirContext& ctx,
                         std::vector<ssp::Request>* out);
  /// Ships a logical op's mutating sub-ops. With write-behind off this
  /// is one immediate batched round trip (ExecuteBatchNow); with it on,
  /// the requests are staged into pending_writes_ and shipped at the
  /// next flush point, so several logical ops share one round trip.
  Status ExecuteBatch(std::vector<ssp::Request> requests);
  /// The wire half of ExecuteBatch: one batched round trip, verifying
  /// each sub-response. Envelope or sub-op kError maps to Unavailable
  /// (well-formed, not executed — safe to re-issue); kBadRequest maps
  /// to IoError (definitive rejection). Takes the requests by const ref
  /// so a failed flush can keep its staged ops.
  Status ExecuteBatchNow(const std::vector<ssp::Request>& requests);
  /// Ships pending_writes_ as one kBatch. Clears the stage on success
  /// and on definitive rejection; keeps it on transient failure (the
  /// ops are idempotent, so the next flush replays them safely).
  Status FlushPendingWrites();

  /// Fetches the master table of a directory the caller can write.
  Result<MasterTable> FetchMaster(const Node& dir,
                                  const ObjectKeyBundle& bundle);

  fs::InodeNum AllocateInode();
  void ChargeClientOverhead();
  std::string ViewCacheKey(fs::InodeNum inode, Selector sel) const;
  void InvalidateInode(fs::InodeNum inode);

  // --- Cache-key chokepoint ---
  // Every cache key is built here (and only here) so keying bugs — like
  // an unnormalized path aliasing "/shared//x" and "/shared/x" into
  // distinct negative dentries — cannot creep back in per call site.
  // Prefixes: "d|" block plaintext, "e|" block AEAD tag, "t|" table
  // copy, "M|" master table, "u|"/"g|" split blocks, "n|" negative
  // dentry ("m|" view keys live in ViewCacheKey, which needs Scheme
  // state). Data/tag keys share the "<inode>|<block>" suffix so a block
  // and its tag invalidate together.
  static std::string DataCacheKey(fs::InodeNum inode, uint32_t block);
  static std::string TagCacheKey(fs::InodeNum inode, uint32_t block);
  static std::string TableCacheKey(fs::InodeNum inode, Selector sel);
  static std::string MasterCacheKey(fs::InodeNum inode);
  static std::string UserSplitCacheKey(fs::InodeNum inode, fs::UserId uid);
  static std::string GroupSplitCacheKey(fs::InodeNum inode, uint32_t id);
  /// `name` must be a single path component (no '/'); the directory
  /// identity comes from the already-resolved inode, so alias spellings
  /// of the directory path collapse to one key.
  static std::string NegDentryCacheKey(fs::InodeNum dir_inode,
                                       const std::string& name);

  /// Every SSP exchange funnels through here: one Call = one round trip,
  /// counted per-instance and into "client.rpc.round_trips".
  Result<ssp::Response> Rpc(const ssp::Request& req);
  /// Canonical spelling for write-buffer keys and subtree-prefix logic:
  /// "/a//b/" and "/a/b" must address the same dirty buffer.
  static Result<std::string> NormalizePath(const std::string& path);
  /// Initial data window batched with a cold file's first fetch (before
  /// the descriptor — and thus the block count — is known).
  uint32_t InitialWindowBlocks() const;

  // --- Data path ---
  Result<Bytes> FetchFileContent(const Node& node);
  Status FlushBuffer(const std::string& path, WriteBuffer* buf);
  /// The next write generation for an inode (monotonic per §VIII
  /// freshness; peeks the stored header when history is unknown).
  Result<uint64_t> NextWriteGen(fs::InodeNum inode);

  fs::UserId uid_;
  fs::Principal principal_;
  crypto::RsaPrivateKey user_priv_;
  const IdentityDirectory* identity_;
  ssp::SspChannel* conn_;
  /// The cluster channel Mount() builds when options_.cluster is set
  /// (conn_ then points at it); null in single-daemon deployments.
  std::unique_ptr<ssp::SspChannel> owned_conn_;
  crypto::CryptoEngine* engine_;
  ObjectCodec codec_;
  ClientOptions options_;
  LruCache cache_;
  /// Names proven absent by a full descent, keyed "n|<dir_inode>|<name>"
  /// (hits/misses surface as "client.dentry.neg.*"). Separate from the
  /// main cache so tiny negative entries are not evicted by data blocks
  /// and vice versa.
  LruCache neg_cache_;
  obs::Counter* rpc_trips_counter_;
  uint64_t rpc_round_trips_ = 0;

  bool mounted_ = false;
  SuperblockPayload superblock_;
  std::map<fs::GroupId, GroupSecret> group_secrets_;
  std::map<std::string, WriteBuffer> write_buffers_;  // By path.
  /// Write-behind stage (DESIGN.md §12): mutating sub-ops accepted by
  /// ExecuteBatch but not yet shipped, in client submission order (the
  /// server applies batch sub-ops in order, so staging preserves the
  /// unbatched apply order). Flushed by Close/Fsync/thresholds and by
  /// the read barrier in Rpc().
  std::vector<ssp::Request> pending_writes_;
  size_t pending_write_bytes_ = 0;
  /// True while FlushPendingWrites is on the wire: its own kBatch (and
  /// any read the flush path issues) must not re-enter the barrier.
  bool flushing_pending_ = false;
  /// Freshness memory per inode (deliberately survives DropCaches):
  /// the highest write generation this client has observed plus the
  /// tag Merkle root it observed at that generation. A later read that
  /// regresses the generation is a rollback; one that keeps the
  /// generation but presents a different root is SSP equivocation —
  /// both fail closed as Corruption.
  struct FreshnessRecord {
    uint64_t write_gen = 0;
    Bytes tag_root;
  };
  std::map<fs::InodeNum, FreshnessRecord> freshness_;
  uint64_t inode_counter_;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_CLIENT_H_
