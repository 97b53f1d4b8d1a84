#include "baselines/baseline.h"

#include <map>

#include "crypto/ctr.h"
#include "crypto/merkle.h"
#include "fs/path.h"
#include "fs/superblock.h"
#include "ssp/wal.h"

namespace sharoes::baselines {

namespace {
/// Pseudo-user slot holding the shared plaintext superblock.
constexpr uint32_t kSuperblockSlot = 0;
/// Key-blob padding of a PUBLIC / PUB-OPT record, calibrated to the
/// paper's Figure 9 (~16 RSA blocks per metadata object; EXPERIMENTS.md).
constexpr size_t kSigningMaterialPad = 3700;
}  // namespace

std::string SecurityModeName(SecurityMode mode) {
  switch (mode) {
    case SecurityMode::kNoEncMdD:
      return "NO-ENC-MD-D";
    case SecurityMode::kNoEncMd:
      return "NO-ENC-MD";
    case SecurityMode::kPublic:
      return "PUBLIC";
    case SecurityMode::kPubOpt:
      return "PUB-OPT";
  }
  return "?";
}

Bytes BaselineRecord::Serialize() const {
  BinaryWriter w;
  attrs.AppendTo(&w);
  w.PutBytes(dek);
  w.PutBytes(signing_material);
  return w.Take();
}

Result<BaselineRecord> BaselineRecord::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  BaselineRecord rec;
  SHAROES_ASSIGN_OR_RETURN(rec.attrs, fs::InodeAttrs::ReadFrom(&r));
  rec.dek = r.GetBytes();
  rec.signing_material = r.GetBytes();
  SHAROES_RETURN_IF_ERROR(r.Finish("baseline record"));
  return rec;
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

BaselineRecord BaselineCodec::NewRecord(const fs::InodeAttrs& attrs) {
  BaselineRecord rec;
  rec.attrs = attrs;
  if (options_.mode != SecurityMode::kNoEncMdD) {
    rec.dek = engine_->NewSymmetricKey().key;
  }
  if (options_.mode == SecurityMode::kPublic ||
      options_.mode == SecurityMode::kPubOpt) {
    rec.signing_material = Bytes(kSigningMaterialPad, 0x5A);
  }
  return rec;
}

Status BaselineCodec::RecordPuts(const BaselineRecord& record,
                                 std::vector<ssp::Request>* out) {
  Bytes plain = record.Serialize();
  fs::InodeNum inode = record.attrs.inode;
  switch (options_.mode) {
    case SecurityMode::kNoEncMdD:
    case SecurityMode::kNoEncMd:
      out->push_back(ssp::Request::PutMetadata(inode, 0, std::move(plain)));
      return Status::OK();
    case SecurityMode::kPubOpt: {
      crypto::SymmetricKey k = engine_->NewSymmetricKey();
      out->push_back(ssp::Request::PutMetadata(
          inode, 0, engine_->SymEncrypt(k, plain)));
      for (fs::UserId uid : identity_->AllUsers()) {
        SHAROES_ASSIGN_OR_RETURN(core::UserInfo user,
                                 identity_->GetUser(uid));
        SHAROES_ASSIGN_OR_RETURN(Bytes wrapped,
                                 engine_->PkEncrypt(user.public_key, k.key));
        out->push_back(
            ssp::Request::PutUserMetadata(inode, uid, std::move(wrapped)));
      }
      return Status::OK();
    }
    case SecurityMode::kPublic: {
      for (fs::UserId uid : identity_->AllUsers()) {
        SHAROES_ASSIGN_OR_RETURN(core::UserInfo user,
                                 identity_->GetUser(uid));
        SHAROES_ASSIGN_OR_RETURN(Bytes enc,
                                 engine_->PkEncrypt(user.public_key, plain));
        out->push_back(
            ssp::Request::PutUserMetadata(inode, uid, std::move(enc)));
      }
      return Status::OK();
    }
  }
  return Status::Internal("bad mode");
}

Bytes BaselineCodec::Seal(const Bytes& dek, const Bytes& plain) {
  if (options_.mode == SecurityMode::kNoEncMdD) return plain;
  return engine_->SymEncrypt(crypto::SymmetricKey{dek}, plain);
}

ssp::Request BaselineCodec::TablePut(const BaselineRecord& dir,
                                     const fs::DirTable& table) {
  return ssp::Request::PutData(dir.attrs.inode, 0,
                               Seal(dir.dek, table.Serialize()));
}

void BaselineCodec::FilePuts(fs::InodeNum inode, const Bytes& dek,
                             const Bytes& content,
                             std::vector<ssp::Request>* out,
                             std::vector<Bytes>* plain_out) {
  core::DataDescriptor desc;
  desc.size = content.size();
  desc.block_count = core::BlockCount(content.size());
  // Baselines have no per-block AEAD tags; the zero root keeps the
  // descriptor wire shape shared with the SHAROES client.
  desc.tag_root = Bytes(crypto::kMerkleRootSize, 0);
  // Block 0 holds a directory's table, so a file's blocks start at 1.
  for (uint32_t i = 0; i < desc.block_count; ++i) {
    auto [begin, end] = core::ChunkRange(i, content.size());
    BinaryWriter w;
    if (i == 0) desc.AppendTo(&w);
    w.PutRaw(content.data() + begin, end - begin);
    Bytes plain = w.Take();
    out->push_back(ssp::Request::PutData(inode, i + 1, Seal(dek, plain)));
    if (plain_out != nullptr) plain_out->push_back(std::move(plain));
  }
}

// ---------------------------------------------------------------------------
// Provisioner
// ---------------------------------------------------------------------------

BaselineProvisioner::BaselineProvisioner(
    const core::IdentityDirectory* identity, ssp::SspServer* server,
    crypto::CryptoEngine* engine, const BaselineOptions& options)
    : server_(server), codec_(identity, engine, options) {}

Status BaselineProvisioner::MigrateNode(const core::LocalNode& spec,
                                        fs::InodeNum inode) {
  fs::InodeAttrs attrs;
  attrs.inode = inode;
  attrs.type = spec.type;
  attrs.owner = spec.owner;
  attrs.group = spec.group;
  attrs.mode = spec.mode;
  attrs.acl = spec.acl;
  attrs.size = spec.content.size();
  BaselineRecord rec = codec_.NewRecord(attrs);
  std::vector<ssp::Request> puts;
  if (spec.type == fs::FileType::kDirectory) {
    fs::DirTable table;
    for (const core::LocalNode& child : spec.children) {
      fs::InodeNum child_inode = ++next_inode_;
      SHAROES_RETURN_IF_ERROR(table.Add(child.name, child_inode));
      SHAROES_RETURN_IF_ERROR(MigrateNode(child, child_inode));
    }
    puts.push_back(codec_.TablePut(rec, table));
  } else {
    codec_.FilePuts(inode, rec.dek, spec.content, &puts);
  }
  SHAROES_RETURN_IF_ERROR(codec_.RecordPuts(rec, &puts));
  for (const ssp::Request& put : puts) {
    SHAROES_RETURN_IF_ERROR(ssp::ApplyWalOp(put, &server_->store()));
  }
  return Status::OK();
}

Status BaselineProvisioner::Migrate(const core::LocalNode& root) {
  if (root.type != fs::FileType::kDirectory) {
    return Status::InvalidArgument("root must be a directory");
  }
  next_inode_ = fs::kRootInode;
  SHAROES_RETURN_IF_ERROR(MigrateNode(root, fs::kRootInode));
  fs::Superblock sb;
  sb.root_inode = fs::kRootInode;
  return ssp::ApplyWalOp(
      ssp::Request::PutSuperblock(kSuperblockSlot, sb.Serialize()),
      &server_->store());
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

BaselineClient::BaselineClient(fs::UserId uid,
                               crypto::RsaPrivateKey user_private_key,
                               const core::IdentityDirectory* identity,
                               ssp::SspChannel* conn,
                               crypto::CryptoEngine* engine,
                               const BaselineOptions& options)
    : FsClient(uid, std::move(user_private_key), identity, conn, engine,
               options.cache_bytes),
      options_(options),
      codec_(identity, engine, options) {}

void BaselineClient::InvalidateInode(fs::InodeNum inode) {
  // Whole keys, but for data blocks: "d|12|" must not cover "d|120|0".
  std::string id = std::to_string(inode);
  cache_.Erase("m|" + id);
  cache_.Erase("t|" + id);
  cache_.ErasePrefix("d|" + id + "|");
}

Status BaselineClient::OpenSuperblock() {
  SHAROES_ASSIGN_OR_RETURN(
      Bytes sb, Get(ssp::Request::GetSuperblock(kSuperblockSlot),
                    "superblock"));
  return fs::Superblock::Deserialize(sb).status();
}

Result<BaselineRecord> BaselineClient::FetchRecord(fs::InodeNum inode) {
  std::string key = "m|" + std::to_string(inode);
  if (auto cached = cache_.Get<BaselineRecord>(key)) return *cached;
  switch (options_.mode) {
    case SecurityMode::kNoEncMdD:
    case SecurityMode::kNoEncMd: {
      SHAROES_ASSIGN_OR_RETURN(
          Bytes plain, Get(ssp::Request::GetMetadata(inode, 0), "metadata"));
      SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec,
                               BaselineRecord::Deserialize(plain));
      cache_.Put(key, rec, plain.size());
      return rec;
    }
    case SecurityMode::kPubOpt: {
      // One round trip fetches the sealed record and our wrapped key.
      std::vector<ssp::Request> reqs;
      reqs.push_back(ssp::Request::GetMetadata(inode, 0));
      reqs.push_back(ssp::Request::GetUserMetadata(inode, uid_));
      SHAROES_ASSIGN_OR_RETURN(
          ssp::Response resp, Rpc(ssp::Request::Batch(std::move(reqs))));
      SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(resp.status, "record batch"));
      if (resp.batch.size() != 2) {
        return Status::IoError("short batch response");
      }
      SHAROES_RETURN_IF_ERROR(
          ssp::ReadStatus(resp.batch[0].status, "metadata"));
      SHAROES_RETURN_IF_ERROR(
          ssp::ReadStatus(resp.batch[1].status, "key block"));
      SHAROES_ASSIGN_OR_RETURN(
          Bytes k, engine_->PkDecrypt(user_priv_, resp.batch[1].payload));
      SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey key_obj,
                               crypto::SymmetricKey::Deserialize(k));
      SHAROES_ASSIGN_OR_RETURN(
          Bytes plain, engine_->SymDecrypt(key_obj, resp.batch[0].payload));
      SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec,
                               BaselineRecord::Deserialize(plain));
      cache_.Put(key, rec,
                 resp.batch[0].payload.size() + resp.batch[1].payload.size());
      return rec;
    }
    case SecurityMode::kPublic: {
      SHAROES_ASSIGN_OR_RETURN(
          Bytes sealed, Get(ssp::Request::GetUserMetadata(inode, uid_),
                            "metadata copy"));
      SHAROES_ASSIGN_OR_RETURN(Bytes plain,
                               engine_->PkDecrypt(user_priv_, sealed));
      SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec,
                               BaselineRecord::Deserialize(plain));
      cache_.Put(key, rec, sealed.size());
      return rec;
    }
  }
  return Status::Internal("bad mode");
}

Result<fs::DirTable> BaselineClient::FetchTable(const BaselineRecord& dir) {
  std::string key = "t|" + std::to_string(dir.attrs.inode);
  if (auto cached = cache_.Get<fs::DirTable>(key)) return *cached;
  SHAROES_ASSIGN_OR_RETURN(
      Bytes wire, Get(ssp::Request::GetData(dir.attrs.inode, 0), "dir table"));
  Bytes plain = wire;
  if (options_.mode != SecurityMode::kNoEncMdD) {
    SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey dek,
                             crypto::SymmetricKey::Deserialize(dir.dek));
    SHAROES_ASSIGN_OR_RETURN(plain, engine_->SymDecrypt(dek, wire));
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table,
                           fs::DirTable::Deserialize(plain));
  cache_.Put(key, table, wire.size());
  return table;
}

Result<BaselineRecord> BaselineClient::ResolveRecord(const std::string& path) {
  if (!mounted_) return Status::FailedPrecondition("not mounted");
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, FetchRecord(fs::kRootInode));
  for (const std::string& comp : comps) {
    if (!rec.attrs.is_dir()) {
      return Status::InvalidArgument("'" + comp +
                                     "' parent is not a directory");
    }
    SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(rec));
    auto child = table.Lookup(comp);
    if (!child.has_value()) {
      return Status::NotFound("no entry named '" + comp + "'");
    }
    SHAROES_ASSIGN_OR_RETURN(rec, FetchRecord(*child));
  }
  return rec;
}

Result<fs::InodeAttrs> BaselineClient::Stat(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, ResolveRecord(path));
  return rec.attrs;
}

Result<std::vector<std::string>> BaselineClient::ListDir(
    const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, ResolveRecord(path));
  if (!rec.attrs.is_dir()) return Status::InvalidArgument("not a directory");
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(rec));
  std::vector<std::string> names;
  names.reserve(table.size());
  for (const fs::DirEntry& e : table.entries()) names.push_back(e.name);
  return names;
}

Status BaselineClient::CreateObject(const std::string& path,
                                    fs::FileType type,
                                    const core::CreateOptions& opts) {
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord parent, ResolveRecord(sp.parent));
  if (!parent.attrs.is_dir()) {
    return Status::InvalidArgument("parent is not a directory");
  }
  // Baselines implement the related work's file-level model: directory
  // writes are allowed to any user with write on the directory record.
  if (!fs::Allows(parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(parent));
  if (table.Contains(sp.name)) {
    return Status::AlreadyExists("'" + path + "' already exists");
  }

  fs::InodeAttrs attrs;
  attrs.inode = AllocateInode();
  attrs.type = type;
  attrs.owner = uid_;
  attrs.group = parent.attrs.group;
  attrs.mode = opts.mode;
  attrs.acl = opts.acl;
  BaselineRecord rec = codec_.NewRecord(attrs);

  // Batch 1: the new object's metadata (+ empty table for directories).
  std::vector<ssp::Request> batch1;
  SHAROES_RETURN_IF_ERROR(codec_.RecordPuts(rec, &batch1));
  if (type == fs::FileType::kDirectory) {
    batch1.push_back(codec_.TablePut(rec, fs::DirTable{}));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatchNow(batch1));

  // Batch 2: the parent's updated table.
  SHAROES_RETURN_IF_ERROR(table.Add(sp.name, rec.attrs.inode));
  std::vector<ssp::Request> batch2;
  batch2.push_back(codec_.TablePut(parent, table));
  SHAROES_RETURN_IF_ERROR(ExecuteBatchNow(batch2));
  // Keep what we just wrote in cache (the client has it all in memory).
  cache_.Put("t|" + std::to_string(parent.attrs.inode), table,
             batch2.back().payload.size());
  cache_.Put("m|" + std::to_string(rec.attrs.inode), rec,
             rec.Serialize().size());
  return Status::OK();
}

Result<Bytes> BaselineClient::FetchFileContent(const BaselineRecord& record) {
  fs::InodeNum inode = record.attrs.inode;
  crypto::SymmetricKey dek;
  if (options_.mode != SecurityMode::kNoEncMdD) {
    SHAROES_ASSIGN_OR_RETURN(dek,
                             crypto::SymmetricKey::Deserialize(record.dek));
  }
  auto decode = [&](const Bytes& wire) -> Result<Bytes> {
    if (options_.mode == SecurityMode::kNoEncMdD) return wire;
    return engine_->SymDecrypt(dek, wire);
  };

  Bytes plain0;
  std::string key0 = "d|" + std::to_string(inode) + "|1";
  if (auto cached = cache_.Get<Bytes>(key0)) {
    plain0 = *cached;
  } else {
    Result<Bytes> wire = Get(ssp::Request::GetData(inode, 1), "data block 1");
    if (wire.status().IsNotFound()) return Bytes{};  // Never written.
    SHAROES_RETURN_IF_ERROR(wire.status());
    SHAROES_ASSIGN_OR_RETURN(plain0, decode(*wire));
    cache_.Put(key0, plain0, wire->size());
  }
  BinaryReader r0(plain0);
  SHAROES_ASSIGN_OR_RETURN(core::DataDescriptor desc,
                           core::DataDescriptor::ReadFrom(&r0));
  Bytes content = r0.GetRaw(r0.remaining());
  if (desc.block_count > 1) {
    std::vector<ssp::Request> gets;
    std::vector<uint32_t> missing;
    std::map<uint32_t, Bytes> chunks;
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      std::string key = "d|" + std::to_string(inode) + "|" +
                        std::to_string(i + 1);
      if (auto cached = cache_.Get<Bytes>(key)) {
        chunks[i] = *cached;
        continue;
      }
      missing.push_back(i);
      gets.push_back(ssp::Request::GetData(inode, i + 1));
    }
    if (!gets.empty()) {
      SHAROES_ASSIGN_OR_RETURN(
          ssp::Response resp, Rpc(ssp::Request::Batch(std::move(gets))));
      SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(resp.status, "block batch"));
      if (resp.batch.size() != missing.size()) {
        return Status::IoError("short batch response");
      }
      for (size_t i = 0; i < missing.size(); ++i) {
        SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(
            resp.batch[i].status,
            "data block " + std::to_string(missing[i] + 1)));
        SHAROES_ASSIGN_OR_RETURN(Bytes plain, decode(resp.batch[i].payload));
        cache_.Put("d|" + std::to_string(inode) + "|" +
                       std::to_string(missing[i] + 1),
                   plain, resp.batch[i].payload.size());
        chunks[missing[i]] = std::move(plain);
      }
    }
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      content.insert(content.end(), chunks[i].begin(), chunks[i].end());
    }
  }
  if (content.size() != desc.size) {
    return Status::Corruption("file size mismatch after reassembly");
  }
  return content;
}

Result<Bytes> BaselineClient::ReadFile(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, ResolveRecord(path));
  SHAROES_RETURN_IF_ERROR(CheckFileAccess(rec.attrs, fs::Access::kRead));
  return FetchFileContent(rec);
}

Result<fs::InodeNum> BaselineClient::OpenForWrite(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, ResolveRecord(path));
  SHAROES_RETURN_IF_ERROR(CheckFileAccess(rec.attrs, fs::Access::kWrite));
  return rec.attrs.inode;
}

Status BaselineClient::FlushBuffer(const std::string& path,
                                   const WriteBuffer& buf) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, ResolveRecord(path));
  if (options_.mode != SecurityMode::kNoEncMdD) {
    SHAROES_RETURN_IF_ERROR(
        crypto::SymmetricKey::Deserialize(rec.dek).status());
  }
  std::vector<ssp::Request> puts;
  std::vector<Bytes> plains;
  codec_.FilePuts(buf.inode, rec.dek, buf.content, &puts, &plains);
  for (size_t i = 0; i < plains.size(); ++i) {
    cache_.Put("d|" + std::to_string(buf.inode) + "|" + std::to_string(i + 1),
               std::move(plains[i]), puts[i].payload.size());
  }
  return ExecuteBatchNow(puts);
}

Status BaselineClient::ChangeMode(const std::string& path, fs::Mode mode) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord rec, ResolveRecord(path));
  if (uid_ != rec.attrs.owner) {
    return Status::PermissionDenied("only the owner may chmod");
  }
  rec.attrs.mode = mode;
  std::vector<ssp::Request> batch;
  SHAROES_RETURN_IF_ERROR(codec_.RecordPuts(rec, &batch));
  SHAROES_RETURN_IF_ERROR(ExecuteBatchNow(batch));
  InvalidateInode(rec.attrs.inode);
  return Status::OK();
}

Status BaselineClient::RemoveObject(const std::string& path,
                                    fs::FileType type) {
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord parent, ResolveRecord(sp.parent));
  if (!fs::Allows(parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable table, FetchTable(parent));
  auto child = table.Lookup(sp.name);
  if (!child.has_value()) return Status::NotFound("'" + path + "' not found");
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord child_rec, ResolveRecord(path));
  if (child_rec.attrs.type != type) {
    return Status::InvalidArgument("type mismatch for remove");
  }
  if (type == fs::FileType::kDirectory) {
    SHAROES_ASSIGN_OR_RETURN(fs::DirTable child_table,
                             FetchTable(child_rec));
    if (!child_table.empty()) {
      return Status::FailedPrecondition("directory not empty");
    }
  }
  SHAROES_RETURN_IF_ERROR(table.Remove(sp.name));
  std::vector<ssp::Request> batch;
  batch.push_back(codec_.TablePut(parent, table));
  // The metadata delete takes the inode's per-user objects with it.
  batch.push_back(ssp::Request::DeleteInodeMetadata(*child));
  batch.push_back(ssp::Request::DeleteInodeData(*child));
  SHAROES_RETURN_IF_ERROR(ExecuteBatchNow(batch));
  cache_.Put("t|" + std::to_string(parent.attrs.inode), table,
             batch[0].payload.size());
  InvalidateInode(*child);
  return Status::OK();
}

Status BaselineClient::RenameEntry(const std::string& from,
                                   const fs::SplitParent& src,
                                   const std::string& to,
                                   const fs::SplitParent& dst) {
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord src_parent,
                           ResolveRecord(src.parent));
  if (!fs::Allows(src_parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable src_table, FetchTable(src_parent));
  auto child = src_table.Lookup(src.name);
  if (!child.has_value()) return Status::NotFound("'" + from + "' not found");

  std::vector<ssp::Request> batch;
  if (src.parent == dst.parent) {
    if (src_table.Contains(dst.name)) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    SHAROES_RETURN_IF_ERROR(src_table.Remove(src.name));
    SHAROES_RETURN_IF_ERROR(src_table.Add(dst.name, *child));
    batch.push_back(codec_.TablePut(src_parent, src_table));
    SHAROES_RETURN_IF_ERROR(ExecuteBatchNow(batch));
    cache_.Put("t|" + std::to_string(src_parent.attrs.inode), src_table,
               batch[0].payload.size());
    return Status::OK();
  }
  SHAROES_ASSIGN_OR_RETURN(BaselineRecord dst_parent,
                           ResolveRecord(dst.parent));
  if (!fs::Allows(dst_parent.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  if (dst_parent.attrs.inode == *child) {
    return Status::InvalidArgument("cannot move a directory into itself");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::DirTable dst_table, FetchTable(dst_parent));
  if (dst_table.Contains(dst.name)) {
    return Status::AlreadyExists("'" + to + "' already exists");
  }
  SHAROES_RETURN_IF_ERROR(src_table.Remove(src.name));
  SHAROES_RETURN_IF_ERROR(dst_table.Add(dst.name, *child));
  batch.push_back(codec_.TablePut(src_parent, src_table));
  batch.push_back(codec_.TablePut(dst_parent, dst_table));
  SHAROES_RETURN_IF_ERROR(ExecuteBatchNow(batch));
  cache_.Put("t|" + std::to_string(src_parent.attrs.inode), src_table,
             batch[0].payload.size());
  cache_.Put("t|" + std::to_string(dst_parent.attrs.inode), dst_table,
             batch[1].payload.size());
  return Status::OK();
}

}  // namespace sharoes::baselines
