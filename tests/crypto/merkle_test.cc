// Merkle tree over block AEAD tags (DESIGN.md §13): root construction,
// proofs, and the domain separation / ordering properties the data-path
// integrity argument depends on.

#include <gtest/gtest.h>

#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "util/random.h"

namespace sharoes::crypto {
namespace {

std::vector<Bytes> RandomLeaves(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Bytes> leaves;
  for (size_t i = 0; i < n; ++i) leaves.push_back(rng.NextBytes(16));
  return leaves;
}

TEST(MerkleTest, EmptyRootIsAllZero) {
  Bytes root = MerkleRoot({});
  EXPECT_EQ(root, Bytes(kMerkleRootSize, 0));
}

TEST(MerkleTest, RootIsDeterministic) {
  auto leaves = RandomLeaves(7, 1);
  EXPECT_EQ(MerkleRoot(leaves), MerkleRoot(leaves));
}

TEST(MerkleTest, SingleLeafRootIsDomainSeparatedHash) {
  auto leaves = RandomLeaves(1, 2);
  // One leaf: the root is the leaf hash itself (promoted), which must be
  // prefixed 0x00 so a leaf can never be confused with an inner node.
  Bytes expected_input;
  expected_input.push_back(0x00);
  Append(expected_input, leaves[0]);
  EXPECT_EQ(MerkleRoot(leaves), Sha256Digest(expected_input));
  EXPECT_NE(MerkleRoot(leaves), Sha256Digest(leaves[0]));
}

TEST(MerkleTest, LeafChangeChangesRoot) {
  for (size_t n : {1, 2, 3, 4, 5, 8, 9}) {
    auto leaves = RandomLeaves(n, 100 + n);
    Bytes root = MerkleRoot(leaves);
    for (size_t i = 0; i < n; ++i) {
      auto tampered = leaves;
      tampered[i][0] ^= 1;
      EXPECT_NE(MerkleRoot(tampered), root) << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTest, LeafOrderMatters) {
  auto leaves = RandomLeaves(5, 3);
  auto swapped = leaves;
  std::swap(swapped[1], swapped[3]);
  EXPECT_NE(MerkleRoot(leaves), MerkleRoot(swapped));
}

TEST(MerkleTest, LeafCountMatters) {
  // Dropping the last leaf (truncation) must change the root, including
  // across the odd/even promotion boundary.
  for (size_t n : {2, 3, 4, 5, 9}) {
    auto leaves = RandomLeaves(n, 200 + n);
    auto shorter = leaves;
    shorter.pop_back();
    EXPECT_NE(MerkleRoot(leaves), MerkleRoot(shorter)) << "n=" << n;
  }
}

}  // namespace
}  // namespace sharoes::crypto
