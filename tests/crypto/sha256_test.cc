#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include "util/bytes.h"

namespace sharoes::crypto {
namespace {

// NIST FIPS 180-4 / well-known SHA-256 test vectors.
struct Vector {
  const char* message;
  const char* digest_hex;
};

class Sha256VectorTest : public ::testing::TestWithParam<Vector> {};

TEST_P(Sha256VectorTest, MatchesKnownDigest) {
  const Vector& v = GetParam();
  EXPECT_EQ(HexEncode(Sha256Digest(ToBytes(v.message))), v.digest_hex);
}

INSTANTIATE_TEST_SUITE_P(
    KnownVectors, Sha256VectorTest,
    ::testing::Values(
        Vector{"",
               "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
        Vector{"abc",
               "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
        Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
               "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
        Vector{"The quick brown fox jumps over the lazy dog",
               "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"},
        Vector{"The quick brown fox jumps over the lazy dog.",
               "ef537f25c895bfa782526529a9b63d97aa631564d5d789c2b765448c8635fb6c"}));

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  // Splitting the input at every position must not change the digest.
  Bytes msg = ToBytes("incremental hashing must be split-invariant 0123456789");
  Bytes expected = Sha256Digest(msg);
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(msg.data(), split);
    h.Update(msg.data() + split, msg.size() - split);
    EXPECT_EQ(h.Finish(), expected) << "split at " << split;
  }
}

TEST(Sha256Test, BlockBoundaryLengths) {
  // Lengths straddling the 64-byte block and 56-byte padding boundaries.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 127u, 128u}) {
    Bytes msg(len, 'x');
    Bytes d1 = Sha256Digest(msg);
    Sha256 h;
    for (const uint8_t& c : msg) h.Update(&c, 1);
    EXPECT_EQ(h.Finish(), d1) << "len " << len;
  }
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update(ToBytes("first"));
  (void)h.Finish();
  h.Reset();
  h.Update(ToBytes("abc"));
  EXPECT_EQ(HexEncode(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256Digest(ToBytes("a")), Sha256Digest(ToBytes("b")));
  EXPECT_NE(Sha256Digest(Bytes{}), Sha256Digest(Bytes{0}));
}

}  // namespace
}  // namespace sharoes::crypto
