#include "fs/metadata.h"

namespace sharoes::fs {

void InodeAttrs::AppendTo(BinaryWriter* w) const {
  w->PutU64(inode);
  w->PutU8(static_cast<uint8_t>(type));
  w->PutU32(owner);
  w->PutU32(group);
  w->PutU16(mode.bits());
  w->PutU64(size);
  w->PutU64(mtime);
  w->PutU32(nlink);
  w->PutU32(static_cast<uint32_t>(acl.size()));
  for (const AclEntry& e : acl) {
    w->PutU8(static_cast<uint8_t>(e.kind));
    w->PutU32(e.id);
    w->PutU8(e.perms);
  }
}

Result<InodeAttrs> InodeAttrs::ReadFrom(BinaryReader* r) {
  InodeAttrs a;
  a.inode = r->GetU64();
  uint8_t type = r->GetU8();
  if (r->ok() && type > 1) {
    return Status::Corruption("bad file type in inode attrs");
  }
  a.type = static_cast<FileType>(type);
  a.owner = r->GetU32();
  a.group = r->GetU32();
  a.mode = Mode(r->GetU16());
  a.size = r->GetU64();
  a.mtime = r->GetU64();
  a.nlink = r->GetU32();
  uint32_t n_acl = r->GetU32();
  if (!r->ok() || n_acl > r->remaining()) {
    return Status::Corruption("truncated inode attrs");
  }
  a.acl.reserve(n_acl);
  for (uint32_t i = 0; i < n_acl; ++i) {
    AclEntry e;
    uint8_t kind = r->GetU8();
    if (r->ok() && kind > 1) {
      return Status::Corruption("bad acl kind");
    }
    e.kind = static_cast<AclEntry::Kind>(kind);
    e.id = r->GetU32();
    e.perms = r->GetU8() & 7;
    a.acl.push_back(e);
  }
  if (!r->ok()) return Status::Corruption("truncated inode attrs");
  return a;
}

}  // namespace sharoes::fs
