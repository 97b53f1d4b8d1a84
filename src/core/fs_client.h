// FsClient: the POSIX-like client filesystem interface shared by SHAROES
// and the four baseline implementations of the paper's §V. Workloads and
// benchmarks are written against this interface only.
//
// The paper's prototype exposes these operations through FUSE; here they
// are a C++ API (the substitution is documented in DESIGN.md §2). Write
// semantics follow the paper: writes are buffered locally and encrypted/
// shipped on Close ("we cache all writes locally and only encrypt the
// file before sending it to the SSP as the result of a file close").

#ifndef SHAROES_CORE_FS_CLIENT_H_
#define SHAROES_CORE_FS_CLIENT_H_

#include <string>
#include <vector>

#include "fs/metadata.h"
#include "fs/mode.h"
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

/// Abstract client filesystem.
///
/// All paths are absolute ("/a/b/c"). Implementations are single-user:
/// one instance per (user, mount).
class FsClient {
 public:
  virtual ~FsClient() = default;

  /// Fetches and opens this user's superblock; must precede other ops.
  virtual Status Mount() = 0;

  /// stat(2): attributes of the object at `path`.
  virtual Result<fs::InodeAttrs> Getattr(const std::string& path) = 0;

  /// mkdir(2) / creat(2).
  virtual Status Mkdir(const std::string& path, const CreateOptions& opts) = 0;
  virtual Status Create(const std::string& path,
                        const CreateOptions& opts) = 0;

  /// Reads the whole file (buffered local writes are visible).
  virtual Result<Bytes> Read(const std::string& path) = 0;

  /// Buffers new file contents locally (no network / crypto cost).
  virtual Status Write(const std::string& path, const Bytes& content) = 0;

  /// Flushes buffered writes: encrypt, sign, ship to the SSP.
  virtual Status Close(const std::string& path) = 0;

  /// readdir(3): entry names (unsorted).
  virtual Result<std::vector<std::string>> Readdir(const std::string& path) = 0;

  /// chmod(2); owner-only. May trigger revocation (re-encryption).
  virtual Status Chmod(const std::string& path, fs::Mode mode) = 0;

  /// unlink(2) / rmdir(2).
  virtual Status Unlink(const std::string& path) = 0;
  virtual Status Rmdir(const std::string& path) = 0;

  /// rename(2), non-overwriting: fails with AlreadyExists if `to` exists.
  /// Needs write+exec on both parent directories.
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// fsync(2)-flavoured drain: ships any client-side write-behind state
  /// to the SSP. The default is a no-op — only clients with a deferred
  /// write path (SharoesClient's write_batch_ops stage) override it.
  virtual Status Fsync() { return Status::OK(); }

  // --- Conveniences (implemented on the virtuals) ---

  /// Write + Close.
  Status WriteFile(const std::string& path, const Bytes& content) {
    Status s = Write(path, content);
    if (!s.ok()) return s;
    return Close(path);
  }

  /// Read + extend + Write (append workloads). Does not Close.
  Status Append(const std::string& path, const Bytes& extra) {
    auto cur = Read(path);
    if (!cur.ok()) return cur.status();
    Bytes next = std::move(*cur);
    next.insert(next.end(), extra.begin(), extra.end());
    return Write(path, next);
  }

  bool Exists(const std::string& path) { return Getattr(path).ok(); }
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_FS_CLIENT_H_
