// Merkle tree over per-block AEAD tags (UPSS/CapsuleFS-style).
//
// A file's chunk blocks (1..n-1) each carry a 16-byte AEAD tag; the
// tree's 32-byte root is embedded in the DSK-signed descriptor, block 0, so
// one signature binds every block of the file together: a cross-block
// splice or a stale-but-internally-consistent block set changes the root
// and fails closed.
//
// Domain separation (second-preimage hardening): leaves hash as
// SHA256(0x00 || leaf) and interior nodes as SHA256(0x01 || left ||
// right); an odd node at any level is promoted unchanged.

#ifndef SHAROES_CRYPTO_MERKLE_H_
#define SHAROES_CRYPTO_MERKLE_H_

#include <vector>

#include "util/bytes.h"

namespace sharoes::crypto {

constexpr size_t kMerkleRootSize = 32;

/// Root over `leaves` in order. The empty tree has the all-zero root (a
/// file of one block has no tail tags but still commits to "no tail").
Bytes MerkleRoot(const std::vector<Bytes>& leaves);

}  // namespace sharoes::crypto

#endif  // SHAROES_CRYPTO_MERKLE_H_
