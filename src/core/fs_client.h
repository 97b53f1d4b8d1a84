// FsClient: the one client front end of SHAROES and of the four baseline
// systems of the paper's §V. Workloads and benchmarks are written against
// this class only, and so is every decision that is not part of a
// security design (DESIGN.md §3, §5):
//
//   - the user's identity (uid, principal, user key, identity directory),
//     the channel to the SSP, the crypto engine and the LruCache;
//   - write buffers, keyed by the canonical path: visible to Read and to
//     Getattr's size, moved with Rename (a directory's subtree included),
//     dropped by Unlink and Rmdir, and flushed by Close;
//   - the path rules (NormalizePath; a directory never moves under
//     itself), the fixed per-op client charge (OTHER in Figure 13) and
//     inode allocation;
//   - the per-op trace span and round-trip count (OpScope), every SSP
//     exchange (Rpc), and the reply rule of a mutating batch
//     (ExecuteBatchNow).
//
// A client supplies only its security design, through the protected hooks
// below: how a path resolves and a file is read, opened for writing and
// flushed, and how an entry is created, removed, renamed, re-moded and
// stat'ed. SharoesClient (core/client.h) implements them with CAPs;
// BaselineClient (baselines/baseline.h) with its per-mode records.
//
// The paper's prototype exposes these operations through FUSE; here they
// are a C++ API (the substitution is documented in DESIGN.md §2). Write
// semantics follow the paper: writes are buffered locally and encrypted/
// shipped on Close ("we cache all writes locally and only encrypt the
// file before sending it to the SSP as the result of a file close").

#ifndef SHAROES_CORE_FS_CLIENT_H_
#define SHAROES_CORE_FS_CLIENT_H_

#include <map>
#include <string>
#include <vector>

#include "core/cache.h"
#include "core/identity.h"
#include "crypto/keys.h"
#include "fs/metadata.h"
#include "fs/mode.h"
#include "fs/path.h"
#include "obs/trace.h"
#include "ssp/ssp_server.h"
#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::core {

/// Fixed per-operation client handling cost ("OTHER" in Figure 13), the
/// same for SHAROES and every baseline.
inline constexpr double kClientOverheadMs = 5.0;

/// Options for object creation.
struct CreateOptions {
  fs::Mode mode = fs::Mode::FromOctal(0644);
  /// POSIX ACL entries attached at creation (paper §III-D.2 split points).
  std::vector<fs::AclEntry> acl;
};

/// The client filesystem.
///
/// All paths are absolute ("/a/b/c"); "/a//b/" and "/a/b" name the same
/// object. A client is single-user: one instance per (user, mount).
class FsClient {
 public:
  virtual ~FsClient() = default;
  FsClient(const FsClient&) = delete;
  FsClient& operator=(const FsClient&) = delete;

  /// Fetches and opens this user's superblock; must precede other ops.
  Status Mount();

  /// stat(2): attributes of the object at `path`. A file's size is its
  /// dirty write buffer's, when it has one.
  Result<fs::InodeAttrs> Getattr(const std::string& path);

  /// mkdir(2) / creat(2).
  Status Mkdir(const std::string& path, const CreateOptions& opts);
  Status Create(const std::string& path, const CreateOptions& opts);

  /// Reads the whole file (buffered local writes are visible).
  Result<Bytes> Read(const std::string& path);

  /// Buffers new file contents locally (no network / crypto cost).
  Status Write(const std::string& path, const Bytes& content);

  /// Flushes buffered writes: encrypt, sign, ship to the SSP. Also a
  /// flush point of any write-behind stage (FlushStaged).
  Status Close(const std::string& path);

  /// readdir(3): entry names (unsorted).
  Result<std::vector<std::string>> Readdir(const std::string& path);

  /// chmod(2); owner-only. May trigger revocation (re-encryption).
  Status Chmod(const std::string& path, fs::Mode mode);

  /// unlink(2) / rmdir(2). A removal is a flush point.
  Status Unlink(const std::string& path);
  Status Rmdir(const std::string& path);

  /// rename(2), non-overwriting: fails with AlreadyExists if `to` exists.
  /// Needs write+exec on both parent directories.
  Status Rename(const std::string& from, const std::string& to);

  /// fsync(2)-flavoured drain: ships any client-side write-behind state
  /// to the SSP (FlushStaged). OK when nothing is staged.
  Status Fsync();

  // --- Conveniences ---

  /// Write + Close.
  Status WriteFile(const std::string& path, const Bytes& content) {
    SHAROES_RETURN_IF_ERROR(Write(path, content));
    return Close(path);
  }

  /// Read + extend + Write (append workloads). Does not Close.
  Status Append(const std::string& path, const Bytes& extra) {
    SHAROES_ASSIGN_OR_RETURN(Bytes next, Read(path));
    next.insert(next.end(), extra.begin(), extra.end());
    return Write(path, next);
  }

  bool Exists(const std::string& path) { return Getattr(path).ok(); }

  // --- Cache control and counters (benchmarks and tests) ---

  LruCache& cache() { return cache_; }
  /// Drops all cached cleartext (forces re-fetch + re-decrypt; used by
  /// benchmarks to separate warm/cold behaviour).
  virtual void DropCaches() { cache_.Clear(); }
  /// Re-opens one object (close-to-open): drops its cached state
  /// (InvalidateInode) while keeping the resolved path prefix warm. This
  /// models a dcache-warm client re-fetching one object, the unit the
  /// paper's Figure 13 times.
  Status EvictPath(const std::string& path);

  /// SSP round trips this client has issued (every Call on the channel,
  /// batched or not). Also counted process-wide as
  /// "client.rpc.round_trips" with per-op histograms
  /// "client.rpc.round_trips.<Op>" in the global registry. Against a
  /// cluster this counts LOGICAL round trips — a batch fanned out to
  /// several shards in parallel inside one Call is one round trip (the
  /// op's WAN cost is the max per shard, not the sum); the fan-out
  /// width is its own histogram, "client.rpc.shard_fanout".
  uint64_t rpc_round_trips() const { return rpc_round_trips_; }
  fs::UserId uid() const { return uid_; }

 protected:
  /// `engine`, `identity`, `conn` must outlive the client.
  FsClient(fs::UserId uid, crypto::RsaPrivateKey user_private_key,
           const IdentityDirectory* identity, ssp::SspChannel* conn,
           crypto::CryptoEngine* engine, size_t cache_bytes);

  struct WriteBuffer {
    fs::InodeNum inode;
    Bytes content;
  };

  // --- Hooks: a client's security design ---

  /// Fetches and opens the superblock (Mount).
  virtual Status OpenSuperblock() = 0;
  /// The attributes of the object at `path` (Getattr, EvictPath).
  virtual Result<fs::InodeAttrs> Stat(const std::string& path) = 0;
  /// The names in the directory at `path` (Readdir).
  virtual Result<std::vector<std::string>> ListDir(
      const std::string& path) = 0;
  /// Resolves `path` and reads the file from the SSP (Read without a
  /// buffer).
  virtual Result<Bytes> ReadFile(const std::string& path) = 0;
  /// Checks that this user may write the file at `path` and returns its
  /// inode (the first Write of a buffer).
  virtual Result<fs::InodeNum> OpenForWrite(const std::string& path) = 0;
  /// Ships a buffer's content as the file at `path` (Close).
  virtual Status FlushBuffer(const std::string& path,
                             const WriteBuffer& buf) = 0;
  virtual Status CreateObject(const std::string& path, fs::FileType type,
                              const CreateOptions& opts) = 0;
  virtual Status RemoveObject(const std::string& path, fs::FileType type) = 0;
  /// Moves the entry `src` (spelled `from`) to `dst` (spelled `to`); the
  /// front end has checked that the two differ and that `to` is not
  /// under `from`.
  virtual Status RenameEntry(const std::string& from,
                             const fs::SplitParent& src, const std::string& to,
                             const fs::SplitParent& dst) = 0;
  virtual Status ChangeMode(const std::string& path, fs::Mode mode) = 0;
  /// Drops what is cached about `inode` (EvictPath).
  virtual void InvalidateInode(fs::InodeNum inode) = 0;
  /// Ships any write-behind stage: at Close, Fsync, the end of a removal
  /// and before every Rpc (the read barrier). OK when nothing is staged;
  /// a client without a stage keeps the default.
  virtual Status FlushStaged() { return Status::OK(); }

  // --- Shared mechanisms ---

  /// RAII around one public client op: the trace span plus a sample in
  /// "client.rpc.round_trips.<op>" of how many SSP round trips the op
  /// issued — with batching, round trips are the op's WAN cost, so they
  /// are first-class observable next to latency.
  class OpScope {
   public:
    OpScope(FsClient* client, const char* op);
    ~OpScope();
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    FsClient* client_;
    obs::ClientSpan span_;
    uint64_t start_trips_;
    obs::Histogram* trips_hist_;
  };

  /// Every SSP exchange funnels through here: the read barrier
  /// (FlushStaged), then one Call = one round trip, counted per-instance
  /// and into "client.rpc.round_trips".
  Result<ssp::Response> Rpc(const ssp::Request& req);
  /// The one read of a single object: one Rpc, the reply mapped by
  /// ssp::ReadStatus. A caller may give its own meaning only to NotFound.
  Result<Bytes> Get(const ssp::Request& req, const std::string& what);
  /// The reply rule of a mutating batch: one batched round trip,
  /// verifying each sub-response. Envelope or sub-op kError maps to
  /// Unavailable (well-formed, not executed — safe to re-issue);
  /// kBadRequest maps to IoError (definitive rejection). A batch of one
  /// stays a batch. Takes the requests by const ref so a failed flush
  /// can keep its staged ops.
  Status ExecuteBatchNow(const std::vector<ssp::Request>& requests);

  /// Canonical spelling for write-buffer keys and subtree-prefix logic:
  /// "/a//b/" and "/a/b" must address the same dirty buffer.
  static Result<std::string> NormalizePath(const std::string& path);
  /// The access rule of Read and Write on a resolved object: a file that
  /// this user may `access` (kRead or kWrite).
  Status CheckFileAccess(const fs::InodeAttrs& attrs,
                         fs::Access access) const;
  /// Charges the fixed per-op client cost (OTHER) to the virtual clock.
  void ChargeClientOverhead();
  /// Partitioned allocation: the high bits carry the creator's uid, so
  /// clients never contend on a shared counter (the SSP performs no
  /// computation and cannot allocate).
  fs::InodeNum AllocateInode();

  fs::UserId uid_;
  fs::Principal principal_;
  crypto::RsaPrivateKey user_priv_;
  const IdentityDirectory* identity_;
  ssp::SspChannel* conn_;
  crypto::CryptoEngine* engine_;
  LruCache cache_;
  bool mounted_ = false;

 private:
  Status Make(const std::string& path, fs::FileType type,
              const CreateOptions& opts);
  Status Remove(const std::string& path, fs::FileType type);

  obs::Counter* rpc_trips_counter_;
  uint64_t rpc_round_trips_ = 0;
  std::map<std::string, WriteBuffer> write_buffers_;  // By canonical path.
  uint64_t inode_counter_;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_FS_CLIENT_H_
