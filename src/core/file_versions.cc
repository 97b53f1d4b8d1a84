#include "core/file_versions.h"

#include <algorithm>

namespace sharoes::core {

void FileVersions::Created(fs::InodeNum inode) {
  records_[inode].must_peek = false;
}

Status FileVersions::Observe(fs::InodeNum inode, uint64_t write_gen,
                             const Bytes& tag_root) {
  Record& r = records_[inode];
  if (r.pending.has_value() && r.pending->write_gen == write_gen &&
      ConstantTimeEquals(r.pending->tag_root, tag_root)) {
    return Status::OK();
  }
  if (write_gen < r.floor.write_gen) {
    return Status::Corruption("rollback detected: write generation regressed");
  }
  if (write_gen == r.floor.write_gen && !r.floor.tag_root.empty() &&
      !ConstantTimeEquals(tag_root, r.floor.tag_root)) {
    return Status::Corruption(
        "rollback detected: different content presented at the same write "
        "generation");
  }
  r.floor.write_gen = write_gen;
  r.floor.tag_root = tag_root;
  r.must_peek = false;
  return Status::OK();
}

bool FileVersions::NeverWritten(fs::InodeNum inode) const {
  auto it = records_.find(inode);
  return it == records_.end() || it->second.floor.write_gen == 0;
}

bool FileVersions::Unwritten(fs::InodeNum inode) const {
  auto it = records_.find(inode);
  return it != records_.end() && !it->second.must_peek &&
         it->second.floor.write_gen == 0 && !it->second.pending.has_value();
}

bool FileVersions::MustPeek(fs::InodeNum inode) const {
  auto it = records_.find(inode);
  return it == records_.end() || it->second.must_peek;
}

uint64_t FileVersions::Next(fs::InodeNum inode, uint64_t peeked) const {
  auto it = records_.find(inode);
  if (it == records_.end()) return peeked + 1;
  const Record& r = it->second;
  uint64_t own = r.pending.has_value() ? r.pending->write_gen : 0;
  return std::max({peeked, r.floor.write_gen, own}) + 1;
}

void FileVersions::Pend(fs::InodeNum inode, uint64_t write_gen,
                        Bytes tag_root) {
  Record& r = records_[inode];
  if (!r.pending.has_value()) pending_.push_back(inode);
  r.pending = Version{write_gen, std::move(tag_root)};
}

void FileVersions::Settle(bool acknowledged) {
  for (fs::InodeNum inode : pending_) {
    Record& r = records_.at(inode);
    if (acknowledged) r.floor = std::move(*r.pending);
    r.pending.reset();
    r.must_peek = !acknowledged;
  }
  pending_.clear();
}

}  // namespace sharoes::core
