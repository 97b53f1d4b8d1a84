#include "core/fs_client.h"

#include "fs/posix_monitor.h"
#include "obs/span.h"

namespace sharoes::core {

namespace {

/// `path` is `dir` itself or names an object below it (canonical
/// spellings).
bool Within(const std::string& path, const std::string& dir) {
  return path.compare(0, dir.size(), dir) == 0 &&
         (path.size() == dir.size() || path[dir.size()] == '/');
}

}  // namespace

FsClient::FsClient(fs::UserId uid, crypto::RsaPrivateKey user_private_key,
                   const IdentityDirectory* identity, ssp::SspChannel* conn,
                   crypto::CryptoEngine* engine, size_t cache_bytes)
    : uid_(uid),
      principal_(identity->PrincipalOf(uid)),
      user_priv_(std::move(user_private_key)),
      identity_(identity),
      conn_(conn),
      engine_(engine),
      cache_(cache_bytes),
      rpc_trips_counter_(
          obs::MetricsRegistry::Global().counter("client.rpc.round_trips")),
      inode_counter_(engine->rng().NextU64() & 0xFFFFFFFFULL) {}

FsClient::OpScope::OpScope(FsClient* client, const char* op)
    : client_(client),
      span_(op),
      start_trips_(client->rpc_round_trips_),
      trips_hist_(obs::MetricsRegistry::Global().histogram(
          std::string("client.rpc.round_trips.") + op)) {}

FsClient::OpScope::~OpScope() {
  trips_hist_->Record(client_->rpc_round_trips_ - start_trips_);
}

// ---------------------------------------------------------------------------
// Public operations
// ---------------------------------------------------------------------------

Status FsClient::Mount() {
  OpScope span(this, "Mount");
  principal_ = identity_->PrincipalOf(uid_);
  ChargeClientOverhead();
  SHAROES_RETURN_IF_ERROR(OpenSuperblock());
  mounted_ = true;
  return Status::OK();
}

Result<fs::InodeAttrs> FsClient::Getattr(const std::string& path) {
  OpScope span(this, "Getattr");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::InodeAttrs attrs, Stat(path));
  if (!attrs.is_dir()) {
    SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
    auto it = write_buffers_.find(norm);
    if (it != write_buffers_.end()) attrs.size = it->second.content.size();
  }
  return attrs;
}

Status FsClient::Mkdir(const std::string& path, const CreateOptions& opts) {
  return Make(path, fs::FileType::kDirectory, opts);
}

Status FsClient::Create(const std::string& path, const CreateOptions& opts) {
  return Make(path, fs::FileType::kFile, opts);
}

Status FsClient::Make(const std::string& path, fs::FileType type,
                      const CreateOptions& opts) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Mkdir" : "Create");
  ChargeClientOverhead();
  return CreateObject(path, type, opts);
}

Result<Bytes> FsClient::Read(const std::string& path) {
  OpScope span(this, "Read");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it != write_buffers_.end()) return it->second.content;
  return ReadFile(path);
}

Status FsClient::Write(const std::string& path, const Bytes& content) {
  OpScope span(this, "Write");
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it != write_buffers_.end()) {
    it->second.content = content;
    return Status::OK();
  }
  SHAROES_ASSIGN_OR_RETURN(fs::InodeNum inode, OpenForWrite(path));
  write_buffers_[norm] = WriteBuffer{inode, content};
  return Status::OK();
}

Status FsClient::Close(const std::string& path) {
  OpScope span(this, "Close");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  Status s = Status::OK();
  if (it != write_buffers_.end()) {
    s = FlushBuffer(norm, it->second);
    write_buffers_.erase(it);
  }
  // Close is a durability point: whatever a write-behind stage holds
  // (this file's blocks, and any earlier ops sharing the batch) ships
  // now, so a Close that returned OK means the SSP acked the data.
  Status flushed = FlushStaged();
  return s.ok() ? flushed : s;
}

Result<std::vector<std::string>> FsClient::Readdir(const std::string& path) {
  OpScope span(this, "Readdir");
  ChargeClientOverhead();
  return ListDir(path);
}

Status FsClient::Chmod(const std::string& path, fs::Mode mode) {
  OpScope span(this, "Chmod");
  ChargeClientOverhead();
  return ChangeMode(path, mode);
}

Status FsClient::Unlink(const std::string& path) {
  return Remove(path, fs::FileType::kFile);
}

Status FsClient::Rmdir(const std::string& path) {
  return Remove(path, fs::FileType::kDirectory);
}

Status FsClient::Remove(const std::string& path, fs::FileType type) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Rmdir" : "Unlink");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  SHAROES_RETURN_IF_ERROR(RemoveObject(path, type));
  write_buffers_.erase(norm);
  // A removal ships now, so its bytes never bill the next op's flush.
  return FlushStaged();
}

Status FsClient::Rename(const std::string& from, const std::string& to) {
  OpScope span(this, "Rename");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent src, fs::SplitParentName(from));
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent dst, fs::SplitParentName(to));
  // Compare canonical spellings: "/a//b" and "/a/b" are the same path,
  // and the subtree test only works on canonical forms.
  SHAROES_ASSIGN_OR_RETURN(std::string nfrom, NormalizePath(from));
  SHAROES_ASSIGN_OR_RETURN(std::string nto, NormalizePath(to));
  if (nfrom == nto) return Status::OK();
  // Moving a directory under itself would orphan the subtree.
  if (Within(nto, nfrom)) {
    return Status::InvalidArgument("cannot move a directory into itself");
  }
  SHAROES_RETURN_IF_ERROR(RenameEntry(from, src, to, dst));
  // Buffered writes follow the move — the file itself, and when a
  // directory moves, every buffered file underneath it (their old paths
  // no longer resolve, so a stranded buffer would flush into NotFound or,
  // worse, a recreated file at the old path).
  std::vector<std::pair<std::string, WriteBuffer>> moved;
  for (auto it = write_buffers_.begin(); it != write_buffers_.end();) {
    if (Within(it->first, nfrom)) {
      moved.emplace_back(nto + it->first.substr(nfrom.size()),
                         std::move(it->second));
      it = write_buffers_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [key, buf] : moved) write_buffers_[key] = std::move(buf);
  return Status::OK();
}

Status FsClient::Fsync() {
  OpScope scope(this, "Fsync");
  return FlushStaged();
}

Status FsClient::EvictPath(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(fs::InodeAttrs attrs, Stat(path));
  InvalidateInode(attrs.inode);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared mechanisms
// ---------------------------------------------------------------------------

Result<ssp::Response> FsClient::Rpc(const ssp::Request& req) {
  // Read barrier for a write-behind stage: before any read reaches the
  // wire, staged mutations must land so the SSP answers reflect this
  // client's own writes (read-your-writes).
  SHAROES_RETURN_IF_ERROR(FlushStaged());
  ++rpc_round_trips_;
  rpc_trips_counter_->Increment();
  // Everything inside Call — serialization onto the socket, the server,
  // the network, transport retries/backoff — is "waiting on the wire"
  // from this op's point of view.
  obs::PhaseScope wire_phase(obs::Phase::kWireWait);
  return conn_->Call(req);
}

Result<Bytes> FsClient::Get(const ssp::Request& req, const std::string& what) {
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, Rpc(req));
  SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(resp.status, what));
  return std::move(resp.payload);
}

Status FsClient::ExecuteBatchNow(const std::vector<ssp::Request>& requests) {
  if (requests.empty()) return Status::OK();
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::Batch(requests)));
  const std::string of = std::to_string(requests.size());
  // kError = well-formed but not executed with a durability guarantee;
  // the idempotent sub-ops are safe to re-issue. kBadRequest is final.
  auto rejected = [](ssp::RespStatus status, const std::string& what) {
    return status == ssp::RespStatus::kError ? Status::Unavailable(what)
                                             : Status::IoError(what);
  };
  if (!resp.ok()) {
    return rejected(resp.status, "SSP rejected batch of " + of + " ops (" +
                                     ssp::RespStatusName(resp.status) + ")");
  }
  if (resp.batch.size() != requests.size()) {
    return Status::IoError("SSP answered " +
                           std::to_string(resp.batch.size()) +
                           " sub-responses to a batch of " + of);
  }
  for (size_t i = 0; i < resp.batch.size(); ++i) {
    const ssp::RespStatus status = resp.batch[i].status;
    if (status == ssp::RespStatus::kBadRequest ||
        status == ssp::RespStatus::kError) {
      return rejected(status, "SSP rejected batched sub-op " +
                                  std::to_string(i) + "/" + of + " (" +
                                  ssp::OpCodeName(requests[i].op) + ": " +
                                  ssp::RespStatusName(status) + ")");
    }
  }
  return Status::OK();
}

Result<std::string> FsClient::NormalizePath(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  return fs::JoinPath(comps);
}

Status FsClient::CheckFileAccess(const fs::InodeAttrs& attrs,
                                 fs::Access access) const {
  const bool read = access == fs::Access::kRead;
  if (attrs.is_dir()) {
    return Status::InvalidArgument(read ? "cannot Read a directory"
                                        : "cannot Write a directory");
  }
  if (!fs::Allows(attrs, principal_, access)) {
    return Status::PermissionDenied(read ? "no read permission"
                                         : "no write permission");
  }
  return Status::OK();
}

void FsClient::ChargeClientOverhead() {
  if (engine_->clock() != nullptr) {
    engine_->clock()->AdvanceMs(kClientOverheadMs, CostCategory::kOther);
  }
}

fs::InodeNum FsClient::AllocateInode() {
  return (static_cast<uint64_t>(uid_) + 2) << 40 |
         (inode_counter_++ & 0xFFFFFFFFFFull);
}

}  // namespace sharoes::core
