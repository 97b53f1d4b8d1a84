#include "core/migration.h"

#include "ssp/wal.h"

namespace sharoes::core {

Provisioner::Provisioner(IdentityDirectory* identity, ssp::SspServer* server,
                         crypto::CryptoEngine* engine, const Options& options)
    : identity_(identity),
      server_(server),
      engine_(engine),
      codec_(engine, identity, options.scheme),
      options_(options) {}

Result<crypto::RsaKeyPair> Provisioner::CreateUser(fs::UserId uid,
                                                   const std::string& name) {
  crypto::RsaKeyPair kp = engine_->NewUserKeyPair(options_.user_key_bits);
  UserInfo info;
  info.id = uid;
  info.name = name;
  info.public_key = kp.pub;
  SHAROES_RETURN_IF_ERROR(identity_->AddUser(std::move(info)));
  return kp;
}

Result<crypto::RsaKeyPair> Provisioner::CreateGroup(
    fs::GroupId gid, const std::string& name,
    const std::vector<fs::UserId>& members) {
  crypto::RsaKeyPair kp = engine_->NewUserKeyPair(options_.user_key_bits);
  GroupInfo info;
  info.id = gid;
  info.name = name;
  info.public_key = kp.pub;
  info.members.insert(members.begin(), members.end());
  SHAROES_RETURN_IF_ERROR(identity_->AddGroup(std::move(info)));
  group_keys_[gid] = kp;
  for (fs::UserId uid : members) {
    SHAROES_RETURN_IF_ERROR(PutGroupKey(gid, uid, kp.priv));
  }
  return kp;
}

Status Provisioner::PutGroupKey(fs::GroupId gid, fs::UserId uid,
                                const crypto::RsaPrivateKey& group_priv) {
  // The group key block: the group's private key wrapped to the member's
  // public key and stored at the SSP (paper §II-A).
  SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
  SHAROES_ASSIGN_OR_RETURN(
      Bytes block, codec_.EncodeGroupKeyBlock(user.public_key,
                                              GroupSecret{gid, group_priv}));
  return Put(ssp::Request::PutGroupKey(gid, uid, std::move(block)));
}

Status Provisioner::AddGroupMember(fs::GroupId gid, fs::UserId uid) {
  SHAROES_RETURN_IF_ERROR(identity_->AddMember(gid, uid));
  auto it = group_keys_.find(gid);
  if (it == group_keys_.end()) {
    return Status::NotFound("provisioner has no key for group " +
                            std::to_string(gid));
  }
  return PutGroupKey(gid, uid, it->second.priv);
}

Status Provisioner::RemoveGroupMember(fs::GroupId gid, fs::UserId uid) {
  SHAROES_RETURN_IF_ERROR(identity_->RemoveMember(gid, uid));
  SHAROES_RETURN_IF_ERROR(Put(ssp::Request::DeleteGroupKey(gid, uid)));
  // Rotate the group identity so the revoked member's cached private key
  // stops opening *future* wraps; rewrap for remaining members.
  crypto::RsaKeyPair fresh = engine_->NewUserKeyPair(options_.user_key_bits);
  SHAROES_RETURN_IF_ERROR(identity_->SetGroupKey(gid, fresh.pub));
  group_keys_[gid] = fresh;
  SHAROES_ASSIGN_OR_RETURN(GroupInfo info, identity_->GetGroup(gid));
  for (fs::UserId member : info.members) {
    SHAROES_RETURN_IF_ERROR(PutGroupKey(gid, member, fresh.priv));
  }
  return Status::OK();
}

Status Provisioner::Put(ssp::Request req) {
  if (channel_ != nullptr) {
    SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, channel_->Call(req));
    if (resp.status == ssp::RespStatus::kBadRequest ||
        resp.status == ssp::RespStatus::kError) {
      return Status::IoError("SSP rejected provisioning request");
    }
    return Status::OK();
  }
  if (server_ == nullptr) {
    return Status::FailedPrecondition(
        "provisioner has neither a local store nor a remote channel");
  }
  // The daemon's own store apply (no WAL: provisioning fills the store
  // before it serves).
  return ssp::ApplyWalOp(req, &server_->store());
}

namespace {
/// Tallies one rendered put into the migration report.
void CountPut(const ssp::Request& put, MigrationStats* stats) {
  stats->bytes_transferred += put.payload.size();
  if (put.op == ssp::OpCode::kPutUserMetadata) ++stats->split_blocks;
  if (put.op == ssp::OpCode::kPutData) ++stats->data_blocks;
  if (put.op == ssp::OpCode::kPutMetadata) {
    // A copy counts once, by its head; buckets and the master do not.
    bool table = (put.selector & kTableSelectorFlag) != 0;
    bool head = table && (put.selector & kBucketSelectorFlag) == 0;
    if (!table) ++stats->metadata_replicas;
    if (head && put.selector != kMasterSelector) ++stats->table_copies;
  }
}
}  // namespace

Result<Provisioner::MigratedObject> Provisioner::MigrateNode(
    const LocalNode& spec, const std::string& path, fs::InodeNum inode,
    MigrationStats* stats) {
  fs::InodeAttrs attrs;
  attrs.inode = inode;
  attrs.type = spec.type;
  attrs.owner = spec.owner;
  attrs.group = spec.group;
  attrs.mode = spec.mode;
  attrs.acl = spec.acl;
  attrs.size = spec.content.size();
  if (!ModeSupported(spec.type, spec.mode)) {
    stats->degraded_paths.push_back(path);
  }
  OwnershipInfo info = OwnershipInfo::FromAttrs(attrs);
  std::vector<ReplicaSpec> specs =
      ReplicasFor(info, options_.scheme, *identity_);
  MigratedObject obj{attrs, codec_.NewBundle(spec.type, specs)};

  // Recurse into children first (a directory's tables need their MEKs).
  MasterTable master;
  if (spec.type == fs::FileType::kDirectory) {
    for (const LocalNode& child_spec : spec.children) {
      fs::InodeNum child_inode = ++next_inode_;
      SHAROES_ASSIGN_OR_RETURN(
          MigratedObject child,
          MigrateNode(child_spec, path + "/" + child_spec.name, child_inode,
                      stats));
      SHAROES_RETURN_IF_ERROR(master.Add(
          ObjectCodec::EntryFor(child_spec.name, child.attrs, child.bundle)));
    }
  }

  // The same objects, in the same order, as the client writes them.
  std::vector<ssp::Request> puts;
  codec_.RenderReplicas(attrs, specs, obj.bundle, &puts);
  if (spec.type == fs::FileType::kDirectory) {
    ++stats->directories;
    ObjectCodec::DirRender render;
    render.depth = ObjectCodec::FreshDepth(master.entries.size());
    SHAROES_RETURN_IF_ERROR(
        codec_.RenderDirTables(inode, info, master, obj.bundle, &puts,
                               render));
  } else {
    ++stats->files;
    // Migration is the file's first write (generation 1).
    codec_.RenderFile(inode, spec.content,
                      PackedChunkEnds(spec.content.size()),
                      ObjectCodec::DataBlockHeader{0, 1}, obj.bundle.dek,
                      obj.bundle.data.sign, /*kept=*/nullptr, &puts);
  }
  for (ssp::Request& put : puts) {
    CountPut(put, stats);
    SHAROES_RETURN_IF_ERROR(Put(std::move(put)));
  }
  return obj;
}

Status Provisioner::WriteSuperblocks(const MigratedObject& root) {
  OwnershipInfo info = OwnershipInfo::FromAttrs(root.attrs);
  for (fs::UserId uid : identity_->AllUsers()) {
    fs::Principal who = identity_->PrincipalOf(uid);
    Selector sel = SelectorFor(info, who, options_.scheme);
    auto mek_it = root.bundle.meks.find(sel);
    if (mek_it == root.bundle.meks.end()) {
      return Status::Internal("no root replica for user " +
                              std::to_string(uid));
    }
    SuperblockPayload payload;
    payload.root_inode = root.attrs.inode;
    payload.root_ref = PlainRef{root.attrs.inode, fs::FileType::kDirectory,
                                sel, mek_it->second,
                                root.bundle.meta.verify};
    SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes wire, codec_.EncodeSuperblock(user.public_key, payload));
    SHAROES_RETURN_IF_ERROR(
        Put(ssp::Request::PutSuperblock(uid, std::move(wire))));
  }
  return Status::OK();
}

Result<MigrationStats> Provisioner::Migrate(const LocalNode& root_spec) {
  if (root_spec.type != fs::FileType::kDirectory) {
    return Status::InvalidArgument("root of migration must be a directory");
  }
  MigrationStats stats;
  next_inode_ = fs::kRootInode;
  SHAROES_ASSIGN_OR_RETURN(
      MigratedObject root,
      MigrateNode(root_spec, "", fs::kRootInode, &stats));
  SHAROES_RETURN_IF_ERROR(WriteSuperblocks(root));
  root_ = std::make_unique<MigratedObject>(std::move(root));
  return stats;
}

Status Provisioner::RefreshSuperblocks() {
  if (root_ == nullptr) {
    return Status::FailedPrecondition("no filesystem migrated yet");
  }
  return WriteSuperblocks(*root_);
}

}  // namespace sharoes::core
