#include "core/migration.h"

#include "crypto/merkle.h"
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
  // Distribute the group key: wrapped to each member's public key and
  // stored at the SSP (paper §II-A).
  GroupSecret secret{gid, kp.priv};
  for (fs::UserId uid : members) {
    SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes block, codec_.EncodeGroupKeyBlock(user.public_key, secret));
    SHAROES_RETURN_IF_ERROR(
        Put(ssp::Request::PutGroupKey(gid, uid, std::move(block))));
  }
  return kp;
}

Status Provisioner::AddGroupMember(fs::GroupId gid, fs::UserId uid) {
  SHAROES_RETURN_IF_ERROR(identity_->AddMember(gid, uid));
  auto it = group_keys_.find(gid);
  if (it == group_keys_.end()) {
    return Status::NotFound("provisioner has no key for group " +
                            std::to_string(gid));
  }
  SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(uid));
  SHAROES_ASSIGN_OR_RETURN(
      Bytes block, codec_.EncodeGroupKeyBlock(user.public_key,
                                              GroupSecret{gid,
                                                          it->second.priv}));
  return Put(ssp::Request::PutGroupKey(gid, uid, std::move(block)));
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
  GroupSecret secret{gid, fresh.priv};
  for (fs::UserId member : info.members) {
    SHAROES_ASSIGN_OR_RETURN(UserInfo user, identity_->GetUser(member));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes block, codec_.EncodeGroupKeyBlock(user.public_key, secret));
    SHAROES_RETURN_IF_ERROR(
        Put(ssp::Request::PutGroupKey(gid, member, std::move(block))));
  }
  return Status::OK();
}

void Provisioner::Store(uint64_t bytes, MigrationStats* stats) {
  if (stats != nullptr) stats->bytes_transferred += bytes;
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
    if (options_.strict_modes) {
      return Status::Unsupported("unsupported mode " + spec.mode.ToString() +
                                 " at '" + path + "'");
    }
    stats->degraded_paths.push_back(path);
  }
  OwnershipInfo info = OwnershipInfo::FromAttrs(attrs);
  std::vector<ReplicaSpec> specs =
      ReplicasFor(info, options_.scheme, *identity_);

  // Generate the object's key material.
  MigratedObject obj;
  obj.attrs = attrs;
  obj.bundle.data = engine_->NewSigningKeyPair();
  obj.bundle.meta = engine_->NewSigningKeyPair();
  for (const ReplicaSpec& s : specs) {
    obj.bundle.meks[s.selector] = engine_->NewSymmetricKey();
  }
  if (spec.type == fs::FileType::kFile) {
    obj.bundle.dek = engine_->NewSymmetricKey();
  } else {
    for (const ReplicaSpec& s : specs) {
      obj.bundle.table_keys[s.selector] = engine_->NewSymmetricKey();
    }
    obj.bundle.table_keys[kMasterSelector] = engine_->NewSymmetricKey();
  }

  // Recurse into children first (a directory's tables need their MEKs).
  MasterTable master;
  if (spec.type == fs::FileType::kDirectory) {
    for (const LocalNode& child_spec : spec.children) {
      fs::InodeNum child_inode = ++next_inode_;
      SHAROES_ASSIGN_OR_RETURN(
          MigratedObject child,
          MigrateNode(child_spec, path + "/" + child_spec.name, child_inode,
                      stats));
      MasterEntry entry;
      entry.name = child_spec.name;
      entry.inode = child_inode;
      entry.child = OwnershipInfo::FromAttrs(child.attrs);
      entry.mvk = child.bundle.meta.verify.Serialize();
      for (const auto& [sel, mek] : child.bundle.meks) {
        entry.meks[sel] = mek.Serialize();
      }
      SHAROES_RETURN_IF_ERROR(master.Add(std::move(entry)));
    }
  }

  // Metadata replicas.
  for (const ReplicaSpec& s : specs) {
    Bytes wire = codec_.EncodeMetadataReplica(s, attrs, obj.bundle);
    Store(wire.size(), stats);
    SHAROES_RETURN_IF_ERROR(
        Put(ssp::Request::PutMetadata(inode, s.selector, std::move(wire))));
    ++stats->metadata_replicas;
  }

  if (spec.type == fs::FileType::kDirectory) {
    ++stats->directories;
    std::vector<PendingSplitBlock> blocks;
    for (const ReplicaSpec& s : specs) {
      std::vector<fs::UserId> universe =
          UniverseOf(info, s.selector, options_.scheme, *identity_);
      SHAROES_ASSIGN_OR_RETURN(
          Bytes wire,
          codec_.EncodeTableCopy(inode, s.selector,
                                 s.Fields(spec.type).table_view, master,
                                 universe, obj.bundle, &blocks));
      Store(wire.size(), stats);
      SHAROES_RETURN_IF_ERROR(Put(ssp::Request::PutMetadata(
          inode, TableSelector(s.selector), std::move(wire))));
      ++stats->table_copies;
    }
    Bytes master_wire = codec_.EncodeMasterTable(inode, master, obj.bundle);
    Store(master_wire.size(), stats);
    SHAROES_RETURN_IF_ERROR(Put(ssp::Request::PutMetadata(
        inode, TableSelector(kMasterSelector), std::move(master_wire))));
    for (PendingSplitBlock& b : blocks) {
      Store(b.wire.size(), stats);
      SHAROES_RETURN_IF_ERROR(Put(ssp::Request::PutUserMetadata(
          b.child_inode, b.id, std::move(b.wire))));
      ++stats->split_blocks;
    }
  } else {
    ++stats->files;
    // Data blocks: descriptor prefix in block 0.
    const Bytes& content = spec.content;
    size_t bs = options_.block_size;
    DataDescriptor desc;
    desc.size = content.size();
    size_t chunk0 = std::min(content.size(), bs);
    desc.block_count =
        1 + static_cast<uint32_t>((content.size() - chunk0 + bs - 1) / bs);
    desc.write_gen = 1;  // Migration is the first write.
    desc.block_gens.assign(desc.block_count, 1);
    ObjectCodec::DataBlockHeader header{0, desc.write_gen};
    // Tail blocks encode first: their AEAD tags root the descriptor
    // that block 0 carries.
    std::vector<Bytes> tail_wires;
    std::vector<Bytes> tail_tags;
    for (size_t pos = chunk0; pos < content.size(); pos += bs) {
      size_t n = std::min(bs, content.size() - pos);
      Bytes chunk(content.begin() + pos, content.begin() + pos + n);
      Bytes tag;
      tail_wires.push_back(codec_.EncodeDataBlock(
          inode, static_cast<uint32_t>(tail_wires.size()) + 1, header,
          chunk, obj.bundle.dek, obj.bundle.data.sign, &tag));
      tail_tags.push_back(std::move(tag));
    }
    desc.tag_root = crypto::MerkleRoot(tail_tags);
    BinaryWriter w0;
    desc.AppendTo(&w0);
    w0.PutRaw(content.data(), chunk0);
    Bytes wire0 = codec_.EncodeDataBlock(inode, 0, header, w0.Take(),
                                         obj.bundle.dek,
                                         obj.bundle.data.sign);
    Store(wire0.size(), stats);
    SHAROES_RETURN_IF_ERROR(
        Put(ssp::Request::PutData(inode, 0, std::move(wire0))));
    ++stats->data_blocks;
    for (size_t i = 0; i < tail_wires.size(); ++i) {
      Store(tail_wires[i].size(), stats);
      SHAROES_RETURN_IF_ERROR(Put(ssp::Request::PutData(
          inode, static_cast<uint32_t>(i) + 1, std::move(tail_wires[i]))));
      ++stats->data_blocks;
    }
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

Status Provisioner::InitFilesystem(fs::UserId owner, fs::GroupId group,
                                   fs::Mode mode) {
  LocalNode root = LocalNode::Dir("", owner, group, mode);
  auto r = Migrate(root);
  return r.ok() ? Status::OK() : r.status();
}

}  // namespace sharoes::core
