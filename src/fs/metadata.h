// Inode attributes and POSIX ACL entries: the plaintext, logical form of
// a metadata object. The CAP-protected on-SSP encoding (with DEK / DSK /
// DVK / MSK key fields, paper Figure 2) is built on top of this in
// core/metadata_codec.h.

#ifndef SHAROES_FS_METADATA_H_
#define SHAROES_FS_METADATA_H_

#include <string>
#include <vector>

#include "fs/mode.h"
#include "fs/types.h"
#include "util/binary_io.h"
#include "util/bytes.h"
#include "util/result.h"

namespace sharoes::fs {

/// One POSIX ACL entry granting `perms` to a specific user or group
/// beyond the owner/group/others classes (paper §III-D.2: the typical
/// cause of CAP split points).
struct AclEntry {
  enum class Kind : uint8_t { kUser = 0, kGroup = 1 };
  Kind kind = Kind::kUser;
  uint32_t id = 0;  // UserId or GroupId depending on kind.
  PermTriple perms = 0;

  bool operator==(const AclEntry&) const = default;
};

/// The attribute block of an inode (what `stat` returns).
struct InodeAttrs {
  InodeNum inode = kInvalidInode;
  FileType type = FileType::kFile;
  UserId owner = kInvalidUser;
  GroupId group = kInvalidGroup;
  Mode mode;
  uint64_t size = 0;
  uint64_t mtime = 0;   // Logical timestamp (virtual ns at last write).
  uint32_t nlink = 1;
  std::vector<AclEntry> acl;

  bool is_dir() const { return type == FileType::kDirectory; }

  /// Always embedded in a larger object (a metadata view, a baseline
  /// record).
  void AppendTo(BinaryWriter* w) const;
  static Result<InodeAttrs> ReadFrom(BinaryReader* r);

  bool operator==(const InodeAttrs&) const = default;
};

}  // namespace sharoes::fs

#endif  // SHAROES_FS_METADATA_H_
