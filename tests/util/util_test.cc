#include <gtest/gtest.h>

#include "util/binary_io.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/result.h"
#include "util/sim_clock.h"
#include "util/status.h"

namespace sharoes {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("inode 42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.message(), "inode 42");
  EXPECT_EQ(s.ToString(), "not-found: inode 42");
}

TEST(StatusTest, CopyIsCheapAndEqualContent) {
  Status s = Status::PermissionDenied("no CAP");
  Status t = s;
  EXPECT_TRUE(t.IsPermissionDenied());
  EXPECT_EQ(t.message(), "no CAP");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> good = 7;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 7);
  Result<int> bad = Status::NotFound("x");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsNotFound());
  EXPECT_EQ(bad.value_or(-1), -1);
}

Result<int> HalveEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterEven(int x) {
  SHAROES_ASSIGN_OR_RETURN(int half, HalveEven(x));
  return HalveEven(half);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto r = QuarterEven(8);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2);
  EXPECT_FALSE(QuarterEven(6).ok());  // 6/2=3 is odd.
}

TEST(BytesTest, HexRoundTrip) {
  Bytes b = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(HexEncode(b), "00deadbeefff");
  bool ok = false;
  EXPECT_EQ(HexDecode("00deadbeefff", &ok), b);
  EXPECT_TRUE(ok);
}

TEST(BytesTest, HexDecodeRejectsMalformed) {
  bool ok = true;
  HexDecode("abc", &ok);  // Odd length.
  EXPECT_FALSE(ok);
  ok = true;
  HexDecode("zz", &ok);
  EXPECT_FALSE(ok);
}

TEST(BytesTest, ConstantTimeEquals) {
  EXPECT_TRUE(ConstantTimeEquals({1, 2, 3}, {1, 2, 3}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2, 3}, {1, 2, 4}));
  EXPECT_FALSE(ConstantTimeEquals({1, 2}, {1, 2, 3}));
}

TEST(BytesTest, ConstantTimeEqualsAgreesWithOperatorEq) {
  // Every secret-derived comparison routes through ConstantTimeEquals;
  // it must be a drop-in for operator== in both argument orders.
  Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    Bytes a = rng.NextBytes(rng.NextU64() % 48);
    Bytes b = a;
    if (i % 3 == 0 && !b.empty()) b[rng.NextU64() % b.size()] ^= 1;
    if (i % 5 == 0) b = rng.NextBytes(rng.NextU64() % 48);
    EXPECT_EQ(ConstantTimeEquals(a, b), a == b);
    EXPECT_EQ(ConstantTimeEquals(b, a), b == a);
    EXPECT_EQ(ConstantTimeEquals(a, b), ConstantTimeEquals(b, a));
  }
}

TEST(BytesTest, StringConversions) {
  EXPECT_EQ(ToString(ToBytes("hello")), "hello");
  EXPECT_EQ(ToBytes("").size(), 0u);
}

TEST(BinaryIoTest, RoundTripAllTypes) {
  BinaryWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFULL);
  w.PutBytes({1, 2, 3});
  w.PutString("name");
  w.PutRaw(Bytes{9, 9});
  Bytes buf = w.Take();

  BinaryReader r(buf);
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU16(), 0xBEEF);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.GetBytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(r.GetString(), "name");
  EXPECT_EQ(r.GetRaw(2), (Bytes{9, 9}));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(r.Finish("test").ok());
}

TEST(BinaryIoTest, TruncationLatchesFailure) {
  BinaryWriter w;
  w.PutU32(7);
  Bytes buf = w.Take();
  BinaryReader r(buf);
  r.GetU64();  // Over-read.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.GetU32(), 0u);  // Still failed; returns zero.
  EXPECT_FALSE(r.Finish("test").ok());
  EXPECT_EQ(r.Finish("test").code(), StatusCode::kCorruption);
}

TEST(BinaryIoTest, TrailingBytesDetected) {
  BinaryWriter w;
  w.PutU32(7);
  w.PutU8(1);
  Bytes buf = w.Take();
  BinaryReader r(buf);
  r.GetU32();
  Status s = r.Finish("test");
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(BinaryIoTest, HugeLengthPrefixFailsCleanly) {
  // A length prefix larger than the buffer must not allocate or crash.
  Bytes buf = {0xFF, 0xFF, 0xFF, 0x7F, 0x01};
  BinaryReader r(buf);
  Bytes b = r.GetBytes();
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(b.empty());
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    uint64_t v = rng.NextInRange(5, 10);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 10u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBytesSizes) {
  Rng rng(6);
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 100u}) {
    EXPECT_EQ(rng.NextBytes(n).size(), n);
  }
}

TEST(SimClockTest, AdvanceAccumulatesByCategory) {
  SimClock clock;
  clock.AdvanceMs(10, CostCategory::kNetwork);
  clock.AdvanceMs(5, CostCategory::kCrypto);
  clock.AdvanceMs(1, CostCategory::kOther);
  CostSnapshot s = clock.snapshot();
  EXPECT_EQ(s.network_ns(), 10ull * 1000 * 1000);
  EXPECT_EQ(s.crypto_ns(), 5ull * 1000 * 1000);
  EXPECT_EQ(s.other_ns(), 1ull * 1000 * 1000);
  EXPECT_EQ(s.total_ns, 16ull * 1000 * 1000);
  EXPECT_DOUBLE_EQ(s.total_ms(), 16.0);
}

TEST(SimClockTest, SnapshotDeltas) {
  SimClock clock;
  clock.AdvanceMs(3, CostCategory::kNetwork);
  CostSnapshot before = clock.snapshot();
  clock.AdvanceMs(4, CostCategory::kCrypto);
  CostSnapshot delta = clock.snapshot() - before;
  EXPECT_EQ(delta.network_ns(), 0u);
  EXPECT_EQ(delta.crypto_ns(), 4ull * 1000 * 1000);
}

TEST(SimClockTest, ResetClearsState) {
  SimClock clock;
  clock.AdvanceMs(3, CostCategory::kOther);
  clock.Reset();
  EXPECT_EQ(clock.now_ns(), 0u);
}

}  // namespace
}  // namespace sharoes
