#include "crypto/aes.h"

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/random.h"

namespace sharoes::crypto {
namespace {

// FIPS-197 Appendix B example vector.
TEST(AesTest, Fips197AppendixB) {
  bool ok = false;
  Bytes key = HexDecode("2b7e151628aed2a6abf7158809cf4f3c", &ok);
  ASSERT_TRUE(ok);
  Bytes pt = HexDecode("3243f6a8885a308d313198a2e0370734", &ok);
  ASSERT_TRUE(ok);
  Aes128 aes(key);
  uint8_t ct[16];
  aes.EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(Bytes(ct, ct + 16)), "3925841d02dc09fbdc118597196a0b32");
}

// NIST SP 800-38A ECB-AES128 vectors (encrypt direction).
TEST(AesTest, Sp80038aEcbVectors) {
  bool ok = false;
  Bytes key = HexDecode("2b7e151628aed2a6abf7158809cf4f3c", &ok);
  ASSERT_TRUE(ok);
  Aes128 aes(key);
  const char* plain[] = {
      "6bc1bee22e409f96e93d7e117393172a", "ae2d8a571e03ac9c9eb76fac45af8e51",
      "30c81c46a35ce411e5fbc1191a0a52ef", "f69f2445df4f9b17ad2b417be66c3710"};
  const char* cipher[] = {
      "3ad77bb40d7a3660a89ecaf32466ef97", "f5d3d58503b9699de785895a96fdbaaf",
      "43b1cd7f598ece23881b00e3ed030688", "7b0c785e27e8ad3f8223207104725dd4"};
  for (int i = 0; i < 4; ++i) {
    Bytes pt = HexDecode(plain[i], &ok);
    ASSERT_TRUE(ok);
    uint8_t ct[16];
    aes.EncryptBlock(pt.data(), ct);
    EXPECT_EQ(HexEncode(Bytes(ct, ct + 16)), cipher[i]) << "block " << i;
  }
}

TEST(AesTest, InPlaceOperation) {
  Rng rng(7);
  Bytes key = rng.NextBytes(kAes128KeySize);
  Bytes block = rng.NextBytes(kAesBlockSize);
  Aes128 aes(key);
  uint8_t expected[16];
  aes.EncryptBlock(block.data(), expected);
  aes.EncryptBlock(block.data(), block.data());  // out aliases in
  EXPECT_EQ(block, Bytes(expected, expected + 16));
}

TEST(AesTest, KeyAvalanche) {
  // Flipping one key bit must change the ciphertext.
  Rng rng(9);
  Bytes key = rng.NextBytes(kAes128KeySize);
  Bytes pt = rng.NextBytes(kAesBlockSize);
  Aes128 aes1(key);
  uint8_t ct1[16];
  aes1.EncryptBlock(pt.data(), ct1);
  key[0] ^= 1;
  Aes128 aes2(key);
  uint8_t ct2[16];
  aes2.EncryptBlock(pt.data(), ct2);
  EXPECT_NE(Bytes(ct1, ct1 + 16), Bytes(ct2, ct2 + 16));
}

}  // namespace
}  // namespace sharoes::crypto
