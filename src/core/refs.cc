#include "core/refs.h"

#include <algorithm>

#include "crypto/merkle.h"

namespace sharoes::core {

namespace {

void PutOptionalBytes(BinaryWriter* w, bool present, const Bytes& b) {
  w->PutU8(present ? 1 : 0);
  if (present) w->PutBytes(b);
}

void PutKeyMap(BinaryWriter* w,
               const std::map<Selector, crypto::SymmetricKey>& m) {
  w->PutU32(static_cast<uint32_t>(m.size()));
  for (const auto& [sel, key] : m) {
    w->PutU64(sel);
    w->PutBytes(key.key);
  }
}

Result<std::map<Selector, crypto::SymmetricKey>> GetKeyMap(BinaryReader* r) {
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining()) {
    return Status::Corruption("truncated key map");
  }
  std::map<Selector, crypto::SymmetricKey> m;
  for (uint32_t i = 0; i < n; ++i) {
    Selector sel = r->GetU64();
    SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey key,
                             crypto::SymmetricKey::Deserialize(r->GetBytes()));
    m[sel] = std::move(key);
  }
  return m;
}

void PutOwnership(BinaryWriter* w, const OwnershipInfo& o) {
  w->PutU32(o.owner);
  w->PutU32(o.group);
  w->PutU16(o.mode.bits());
  w->PutU8(static_cast<uint8_t>(o.type));
  w->PutU32(static_cast<uint32_t>(o.acl.size()));
  for (const fs::AclEntry& e : o.acl) {
    w->PutU8(static_cast<uint8_t>(e.kind));
    w->PutU32(e.id);
    w->PutU8(e.perms);
  }
}

Result<OwnershipInfo> GetOwnership(BinaryReader* r) {
  OwnershipInfo o;
  o.owner = r->GetU32();
  o.group = r->GetU32();
  o.mode = fs::Mode(r->GetU16());
  uint8_t type = r->GetU8();
  if (r->ok() && type > 1) return Status::Corruption("bad ownership type");
  o.type = static_cast<fs::FileType>(type);
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining()) {
    return Status::Corruption("truncated ownership acl");
  }
  for (uint32_t i = 0; i < n; ++i) {
    fs::AclEntry e;
    uint8_t kind = r->GetU8();
    if (r->ok() && kind > 1) return Status::Corruption("bad acl kind");
    e.kind = static_cast<fs::AclEntry::Kind>(kind);
    e.id = r->GetU32();
    e.perms = r->GetU8() & 7;
    o.acl.push_back(e);
  }
  return o;
}

}  // namespace

Bytes PlainRef::Serialize() const {
  BinaryWriter w;
  w.PutU64(inode);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(selector);
  w.PutBytes(mek.key);
  w.PutBytes(mvk.Serialize());
  return w.Take();
}

Result<PlainRef> PlainRef::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  PlainRef ref;
  ref.inode = r.GetU64();
  uint8_t type = r.GetU8();
  if (r.ok() && type > 1) return Status::Corruption("bad ref type");
  ref.type = static_cast<fs::FileType>(type);
  ref.selector = r.GetU64();
  SHAROES_ASSIGN_OR_RETURN(ref.mek,
                           crypto::SymmetricKey::Deserialize(r.GetBytes()));
  SHAROES_ASSIGN_OR_RETURN(ref.mvk,
                           crypto::VerifyKey::Deserialize(r.GetBytes()));
  SHAROES_RETURN_IF_ERROR(r.Finish("plain ref"));
  return ref;
}

void RowRef::AppendTo(BinaryWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind));
  w->PutU64(inode);
  w->PutU8(static_cast<uint8_t>(type));
  if (kind == Kind::kPlain) {
    w->PutBytes(plain.Serialize());
  } else {
    w->PutU8(has_group_block ? 1 : 0);
    w->PutU32(gid);
  }
}

Result<RowRef> RowRef::ReadFrom(BinaryReader* r) {
  RowRef ref;
  uint8_t kind = r->GetU8();
  if (r->ok() && kind > 1) return Status::Corruption("bad row ref kind");
  ref.kind = static_cast<Kind>(kind);
  ref.inode = r->GetU64();
  uint8_t type = r->GetU8();
  if (r->ok() && type > 1) return Status::Corruption("bad row ref type");
  ref.type = static_cast<fs::FileType>(type);
  if (ref.kind == Kind::kPlain) {
    SHAROES_ASSIGN_OR_RETURN(ref.plain, PlainRef::Deserialize(r->GetBytes()));
  } else {
    ref.has_group_block = r->GetU8() != 0;
    ref.gid = r->GetU32();
  }
  if (!r->ok()) return Status::Corruption("truncated row ref");
  return ref;
}

Bytes MetadataView::Serialize() const {
  BinaryWriter w;
  attrs.AppendTo(&w);
  PutOptionalBytes(&w, dek.has_value(), dek ? dek->Serialize() : Bytes{});
  PutOptionalBytes(&w, dsk.has_value(), dsk ? dsk->Serialize() : Bytes{});
  PutOptionalBytes(&w, dvk.has_value(), dvk ? dvk->Serialize() : Bytes{});
  PutOptionalBytes(&w, msk.has_value(), msk ? msk->Serialize() : Bytes{});
  PutOptionalBytes(&w, mvk.has_value(), mvk ? mvk->Serialize() : Bytes{});
  w.PutU8(0);  // Retired pending-key presence byte.
  w.PutU32(dek_gen);
  PutKeyMap(&w, table_keys);
  PutKeyMap(&w, meks);
  return w.Take();
}

Result<MetadataView> MetadataView::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  MetadataView v;
  SHAROES_ASSIGN_OR_RETURN(v.attrs, fs::InodeAttrs::ReadFrom(&r));
  if (r.GetU8()) {
    SHAROES_ASSIGN_OR_RETURN(v.dek,
                             crypto::SymmetricKey::Deserialize(r.GetBytes()));
  }
  if (r.GetU8()) {
    SHAROES_ASSIGN_OR_RETURN(v.dsk,
                             crypto::SigningKey::Deserialize(r.GetBytes()));
  }
  if (r.GetU8()) {
    SHAROES_ASSIGN_OR_RETURN(v.dvk,
                             crypto::VerifyKey::Deserialize(r.GetBytes()));
  }
  if (r.GetU8()) {
    SHAROES_ASSIGN_OR_RETURN(v.msk,
                             crypto::SigningKey::Deserialize(r.GetBytes()));
  }
  if (r.GetU8()) {
    SHAROES_ASSIGN_OR_RETURN(v.mvk,
                             crypto::VerifyKey::Deserialize(r.GetBytes()));
  }
  if (r.GetU8() != 0) {
    return Status::Corruption("metadata view sets the retired pending key");
  }
  v.dek_gen = r.GetU32();
  SHAROES_ASSIGN_OR_RETURN(v.table_keys, GetKeyMap(&r));
  SHAROES_ASSIGN_OR_RETURN(v.meks, GetKeyMap(&r));
  SHAROES_RETURN_IF_ERROR(r.Finish("metadata view"));
  return v;
}

Result<ObjectKeyBundle> MetadataView::ToBundle() const {
  if (!msk.has_value() || !mvk.has_value() || !dsk.has_value() ||
      !dvk.has_value() || meks.empty()) {
    return Status::PermissionDenied(
        "not an owner/management view: key bundle incomplete");
  }
  if (attrs.type == fs::FileType::kFile && !dek.has_value()) {
    return Status::PermissionDenied("owner file view missing DEK");
  }
  ObjectKeyBundle b;
  if (dek.has_value()) b.dek = *dek;
  b.data = crypto::SigningKeyPair{*dsk, *dvk};
  b.meta = crypto::SigningKeyPair{*msk, *mvk};
  b.meks = meks;
  b.table_keys = table_keys;
  return b;
}

void MasterEntry::AppendTo(BinaryWriter* w) const {
  w->PutString(name);
  w->PutU64(inode);
  PutOwnership(w, child);
  w->PutBytes(mvk);
  w->PutU32(static_cast<uint32_t>(meks.size()));
  for (const auto& [sel, mek] : meks) {
    w->PutU64(sel);
    w->PutBytes(mek);
  }
}

Result<MasterEntry> MasterEntry::ReadFrom(BinaryReader* r) {
  MasterEntry e;
  e.name = r->GetString();
  e.inode = r->GetU64();
  SHAROES_ASSIGN_OR_RETURN(e.child, GetOwnership(r));
  e.mvk = r->GetBytes();
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining()) {
    return Status::Corruption("truncated master entry");
  }
  for (uint32_t i = 0; i < n; ++i) {
    Selector sel = r->GetU64();
    e.meks[sel] = r->GetBytes();
  }
  if (!r->ok()) return Status::Corruption("truncated master entry");
  return e;
}

MasterEntry* MasterTable::Find(const std::string& name) {
  for (MasterEntry& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

Status MasterTable::Add(MasterEntry entry) {
  if (Find(entry.name) != nullptr) {
    return Status::AlreadyExists("entry '" + entry.name + "' already exists");
  }
  entries.push_back(std::move(entry));
  return Status::OK();
}

Status MasterTable::Remove(const std::string& name) {
  auto it = std::find_if(entries.begin(), entries.end(),
                         [&](const MasterEntry& e) { return e.name == name; });
  if (it == entries.end()) {
    return Status::NotFound("entry '" + name + "' not found");
  }
  entries.erase(it);
  return Status::OK();
}

Bytes MasterTable::Serialize() const {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(entries.size()));
  for (const MasterEntry& e : entries) e.AppendTo(&w);
  return w.Take();
}

Result<MasterTable> MasterTable::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  uint32_t n = r.GetU32();
  if (!r.ok() || n > r.remaining()) {
    return Status::Corruption("truncated master table");
  }
  MasterTable t;
  t.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SHAROES_ASSIGN_OR_RETURN(MasterEntry e, MasterEntry::ReadFrom(&r));
    t.entries.push_back(std::move(e));
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("master table"));
  return t;
}

Bytes SuperblockPayload::Serialize() const {
  BinaryWriter w;
  w.PutU64(root_inode);
  w.PutBytes(root_ref.Serialize());
  return w.Take();
}

Result<SuperblockPayload> SuperblockPayload::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  SuperblockPayload sb;
  sb.root_inode = r.GetU64();
  SHAROES_ASSIGN_OR_RETURN(sb.root_ref, PlainRef::Deserialize(r.GetBytes()));
  SHAROES_RETURN_IF_ERROR(r.Finish("superblock payload"));
  return sb;
}

Bytes GroupSecret::Serialize() const {
  BinaryWriter w;
  w.PutU32(gid);
  w.PutBytes(private_key.Serialize());
  return w.Take();
}

Result<GroupSecret> GroupSecret::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  GroupSecret g;
  g.gid = r.GetU32();
  SHAROES_ASSIGN_OR_RETURN(
      g.private_key, crypto::RsaPrivateKey::Deserialize(r.GetBytes()));
  SHAROES_RETURN_IF_ERROR(r.Finish("group secret"));
  return g;
}

std::vector<size_t> RepackTail(std::vector<size_t> old_ends, size_t size,
                               size_t bound) {
  std::vector<size_t> ends = std::move(old_ends);
  for (size_t end = ends.empty() ? 0 : ends.back(); end < size;) {
    end = std::min(end + kBlockSize, size);
    ends.push_back(end);
  }
  if (ends.size() <= bound) return ends;
  // Re-packing chunks k.. re-seals size - begin bytes and leaves room for
  // bound - (k + packed) more chunks, so the appends until the next
  // re-pack number that room plus this one. The scores bytes / appends
  // are compared as cross products. With no k that fits, k = 0: packed.
  size_t best_k = 0, best_bytes = 0, best_appends = 0;
  for (size_t k = ends.size(); k-- > 0;) {
    const size_t begin = k == 0 ? 0 : ends[k - 1];
    const size_t chunks = k + ChunkCount(size - begin);
    if (chunks > bound) continue;
    const size_t bytes = size - begin, appends = bound - chunks + 1;
    if (best_appends == 0 || bytes * best_appends < best_bytes * appends) {
      best_k = k;
      best_bytes = bytes;
      best_appends = appends;
    }
  }
  const size_t begin = best_k == 0 ? 0 : ends[best_k - 1];
  ends.resize(best_k);
  for (size_t end : PackedChunkEnds(size - begin)) ends.push_back(begin + end);
  return ends;
}

void DataDescriptor::AppendTo(BinaryWriter* w) const {
  w->PutU64(size);
  w->PutU32(block_count);
  w->PutU64(write_gen);
  w->PutU32(static_cast<uint32_t>(block_gens.size()));
  for (uint64_t g : block_gens) w->PutU64(g);
  w->PutBytes(tag_root);
}

Result<DataDescriptor> DataDescriptor::ReadFrom(BinaryReader* r) {
  DataDescriptor d;
  d.size = r->GetU64();
  d.block_count = r->GetU32();
  d.write_gen = r->GetU64();
  uint32_t n = r->GetU32();
  if (!r->ok() || n > r->remaining()) {
    return Status::Corruption("truncated data descriptor");
  }
  d.block_gens.reserve(n);
  for (uint32_t i = 0; i < n; ++i) d.block_gens.push_back(r->GetU64());
  d.tag_root = r->GetBytes();
  if (!r->ok() || d.tag_root.size() != crypto::kMerkleRootSize) {
    return Status::Corruption("truncated data descriptor");
  }
  return d;
}

}  // namespace sharoes::core
