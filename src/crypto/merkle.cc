#include "crypto/merkle.h"

#include "crypto/sha256.h"

namespace sharoes::crypto {

namespace {

Bytes HashLeaf(const Bytes& leaf) {
  Bytes buf;
  buf.reserve(1 + leaf.size());
  buf.push_back(0x00);
  Append(buf, leaf);
  return Sha256Digest(buf);
}

Bytes HashNode(const Bytes& left, const Bytes& right) {
  Bytes buf;
  buf.reserve(1 + left.size() + right.size());
  buf.push_back(0x01);
  Append(buf, left);
  Append(buf, right);
  return Sha256Digest(buf);
}

}  // namespace

Bytes MerkleRoot(const std::vector<Bytes>& leaves) {
  if (leaves.empty()) return Bytes(kMerkleRootSize, 0);
  std::vector<Bytes> level;
  level.reserve(leaves.size());
  for (const Bytes& leaf : leaves) level.push_back(HashLeaf(leaf));
  while (level.size() > 1) {
    std::vector<Bytes> next;
    next.reserve((level.size() + 1) / 2);
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      next.push_back(HashNode(level[i], level[i + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());  // Promote.
    level = std::move(next);
  }
  return level[0];
}

}  // namespace sharoes::crypto
