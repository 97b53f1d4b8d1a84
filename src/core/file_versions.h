// FileVersions: one client's per-inode version state (paper §VIII
// freshness, SUNDR-style). Block 0 of a file signs its write generation
// and the Merkle root of its chunk tags. Per inode this keeps the
// rollback floor (the newest version the SSP acknowledged or served; it
// survives DropCaches), the pending version of a shipped or staged write,
// and whether the next write must peek the stored generation. A pending
// version becomes the floor only when the SSP acknowledges its batch.

#ifndef SHAROES_CORE_FILE_VERSIONS_H_
#define SHAROES_CORE_FILE_VERSIONS_H_

#include <map>
#include <optional>
#include <vector>

#include "fs/types.h"
#include "util/bytes.h"
#include "util/status.h"

namespace sharoes::core {

class FileVersions {
 public:
  /// The creator's seed: a new file was never written (generation 0).
  void Created(fs::InodeNum inode);
  /// A block 0 read: an older generation than the floor's, or the floor's
  /// with another root, is Corruption. Otherwise the version becomes the
  /// floor, unless it is the pending one (served from the cache).
  Status Observe(fs::InodeNum inode, uint64_t write_gen,
                 const Bytes& tag_root);
  /// A missing block 0 means an empty file, not dropped data.
  bool NeverWritten(fs::InodeNum inode) const;
  /// True while `inode` holds only its creator's seed: no write of it was
  /// shipped, staged or dropped since Created, so the SSP holds no block
  /// of it.
  bool Unwritten(fs::InodeNum inode) const;
  /// History unknown, or a batch that may carry a version was dropped.
  bool MustPeek(fs::InodeNum inode) const;
  /// 1 + max(peeked, floor, pending).
  uint64_t Next(fs::InodeNum inode, uint64_t peeked) const;
  /// A write at (write_gen, tag_root) was shipped or staged.
  void Pend(fs::InodeNum inode, uint64_t write_gen, Bytes tag_root);
  /// The batch carrying every pending version was acknowledged (each
  /// becomes its inode's floor) or dropped (each is forgotten, and its
  /// inode must peek).
  void Settle(bool acknowledged);

 private:
  struct Version {
    uint64_t write_gen = 0;
    Bytes tag_root;  // Empty for the generation-0 seed.
  };
  struct Record {
    Version floor;
    std::optional<Version> pending;
    bool must_peek = true;
  };
  std::map<fs::InodeNum, Record> records_;
  std::vector<fs::InodeNum> pending_;  // Inodes whose pending is set.
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_FILE_VERSIONS_H_
