// Adversarial-input robustness: every deserializer in the system parses
// bytes that ultimately come from the untrusted SSP. Feeding them random
// garbage and bit-flipped valid encodings must never crash, hang or
// over-allocate — only return clean error statuses (or, for flips the
// format cannot distinguish, a structurally valid object).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "baselines/baseline.h"
#include "core/identity.h"
#include "core/object_codec.h"
#include "core/refs.h"
#include "crypto/rsa.h"
#include "fs/dir_table.h"
#include "fs/metadata.h"
#include "fs/superblock.h"
#include "ssp/message.h"
#include "ssp/tcp_service.h"

namespace sharoes {
namespace {

// A codec and one data key pair, for the data-block decoders.
struct DataCodec {
  static crypto::CryptoEngineOptions EngineOptions() {
    crypto::CryptoEngineOptions o;
    o.cost_model = crypto::CryptoCostModel::Zero();
    o.rng_seed = 0xDE5C;
    return o;
  }
  SimClock clock;
  crypto::CryptoEngine engine{&clock, EngineOptions()};
  core::IdentityDirectory dir;
  core::ObjectCodec codec{&engine, &dir, core::Scheme::kScheme2};
  crypto::SigningKeyPair dsk = engine.NewSigningKeyPair();
};

DataCodec& Data() {
  static DataCodec data;
  return data;
}

Bytes ValidDescriptor() {
  core::DataDescriptor desc;
  desc.size = 5000;
  desc.block_count = 3;
  desc.write_gen = 4;
  desc.block_gens = {2, 4};
  desc.tag_root = Bytes(32, 0xAB);
  return Data().codec.EncodeDescriptor(1, {0, 4}, desc, Data().dsk.sign);
}

// Runs every deserializer on one buffer; returns how many accepted it.
int TryAll(const Bytes& data) {
  int accepted = 0;
  {
    BinaryReader r(data);
    accepted += fs::InodeAttrs::ReadFrom(&r).ok();
  }
  accepted += fs::DirTable::Deserialize(data).ok();
  accepted += fs::Superblock::Deserialize(data).ok();
  accepted += ssp::Request::Deserialize(data).ok();
  accepted += ssp::Response::Deserialize(data).ok();
  accepted += core::PlainRef::Deserialize(data).ok();
  accepted += core::MetadataView::Deserialize(data).ok();
  accepted += core::MasterTable::Deserialize(data).ok();
  accepted += core::SuperblockPayload::Deserialize(data).ok();
  accepted += core::GroupSecret::Deserialize(data).ok();
  accepted += core::IdentityDirectory::Deserialize(data).ok();
  accepted += baselines::BaselineRecord::Deserialize(data).ok();
  accepted += crypto::RsaPublicKey::Deserialize(data).ok();
  accepted += crypto::RsaPrivateKey::Deserialize(data).ok();
  accepted += crypto::SymmetricKey::Deserialize(data).ok();
  {
    BinaryReader r(data);
    accepted += core::DataDescriptor::ReadFrom(&r).ok();
  }
  {
    BinaryReader r(data);
    accepted += core::RowRef::ReadFrom(&r).ok();
  }
  accepted +=
      Data().codec.DecodeDescriptor(1, data, Data().dsk.verify).ok();
  accepted += core::ObjectCodec::IsDataObject(1, data);
  return accepted;
}

class FuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzSweep, RandomBuffersNeverCrash) {
  Rng rng(GetParam());
  for (int i = 0; i < 400; ++i) {
    size_t len = rng.NextBelow(200);
    Bytes data = rng.NextBytes(len);
    TryAll(data);  // Must not crash / hang / throw.
  }
}

TEST_P(FuzzSweep, StructuredPrefixesNeverCrash) {
  // Buffers that begin with plausible length prefixes (the classic
  // over-allocation trap).
  Rng rng(GetParam() ^ 0xF00D);
  for (int i = 0; i < 200; ++i) {
    BinaryWriter w;
    w.PutU32(static_cast<uint32_t>(rng.NextU64()));  // Huge/broken count.
    w.PutRaw(rng.NextBytes(rng.NextBelow(64)));
    TryAll(w.Take());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull));

TEST(FuzzMutation, BitFlippedValidEncodings) {
  // Take valid encodings of each type, flip every byte position once,
  // and re-parse. No crash allowed; most flips must be detected.
  Rng rng(777);

  std::vector<Bytes> corpus;
  {
    fs::InodeAttrs attrs;
    attrs.inode = 7;
    attrs.acl.push_back(fs::AclEntry{fs::AclEntry::Kind::kUser, 3, 5});
    BinaryWriter w;
    attrs.AppendTo(&w);
    corpus.push_back(w.Take());
    fs::DirTable table;
    (void)table.Add("hello", 10);
    (void)table.Add("world", 11);
    corpus.push_back(table.Serialize());
    corpus.push_back(ssp::Request::PutMetadata(1, 2, {1, 2, 3}).Serialize());
    corpus.push_back(
        ssp::Request::Batch({ssp::Request::GetData(1, 0)}).Serialize());
    corpus.push_back(ssp::Response::Ok({9, 9}).Serialize());
    core::MasterTable master;
    core::MasterEntry e;
    e.name = "x";
    e.inode = 3;
    e.meks[0] = rng.NextBytes(16);
    e.mvk = rng.NextBytes(32);
    (void)master.Add(e);
    corpus.push_back(master.Serialize());
    corpus.push_back(ValidDescriptor());
  }

  for (const Bytes& valid : corpus) {
    for (size_t pos = 0; pos < valid.size(); ++pos) {
      Bytes mutated = valid;
      mutated[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
      TryAll(mutated);
    }
    // Truncations at every length.
    for (size_t len = 0; len < valid.size(); ++len) {
      Bytes truncated(valid.begin(), valid.begin() + len);
      TryAll(truncated);
    }
  }
}

TEST(FuzzMutation, DescriptorVerifiesOnlyUnmodified) {
  // The descriptor is cleartext: its signature is all that stands between
  // the SSP and the file's size, generations and Merkle root.
  Bytes valid = ValidDescriptor();
  ASSERT_TRUE(Data().codec.DecodeDescriptor(1, valid, Data().dsk.verify).ok());
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    Bytes mutated = valid;
    mutated[pos] ^= 0x01;
    EXPECT_FALSE(
        Data().codec.DecodeDescriptor(1, mutated, Data().dsk.verify).ok())
        << pos;
  }
}

TEST(FuzzMutation, EmptyAndTinyBuffers) {
  // Nothing structured should parse from (almost) nothing.
  EXPECT_LE(TryAll(Bytes{}), 1);
  for (size_t len = 1; len <= 16; ++len) {
    EXPECT_LE(TryAll(Bytes(len, 0x00)), 3) << len;
    TryAll(Bytes(len, 0xFF));
  }
}

Bytes BatchCountLieRequest(uint32_t claimed, size_t padding) {
  BinaryWriter w;
  w.PutU8(16);  // OpCode::kBatch.
  w.PutU64(0);  // inode.
  w.PutU64(0);  // selector.
  w.PutU32(0);  // user.
  w.PutU32(0);  // group.
  w.PutU32(0);  // block.
  w.PutBytes({});
  w.PutU32(claimed);
  w.PutRaw(Bytes(padding, 0));
  return w.Take();
}

TEST(BatchCountLie, RequestCountBeyondRemainingBytesIsRejectedFast) {
  // Regression: a ~4KB frame whose batch header claims 10^8 sub-requests
  // used to hit batch.reserve(10^8) — a multi-GB allocation from bytes an
  // attacker fully controls — before any sub-request was even parsed. The
  // count is now bounded by what the remaining bytes could possibly hold.
  auto parsed =
      ssp::Request::Deserialize(BatchCountLieRequest(100'000'000, 4096));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);

  // The bound must not over-reject: an honest batch still round-trips.
  std::vector<ssp::Request> subs;
  for (int i = 0; i < 50; ++i) subs.push_back(ssp::Request::GetData(i, 0));
  auto honest = ssp::Request::Deserialize(
      ssp::Request::Batch(std::move(subs)).Serialize());
  ASSERT_TRUE(honest.ok()) << honest.status();
  EXPECT_EQ(honest->batch.size(), 50u);
}

TEST(BatchCountLie, ResponseCountBeyondRemainingBytesIsRejectedFast) {
  // The client-side analog: a malicious SSP lying about the sub-response
  // count must not drive the client into a giant reserve either.
  BinaryWriter w;
  w.PutU8(0);  // RespStatus::kOk.
  w.PutBytes({});
  w.PutU32(100'000'000);
  w.PutRaw(Bytes(4096, 0));
  auto parsed = ssp::Response::Deserialize(w.Take());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);

  std::vector<ssp::Response> subs(50, ssp::Response::Ok({1}));
  ssp::Response honest_resp;
  honest_resp.batch = std::move(subs);
  auto honest = ssp::Response::Deserialize(honest_resp.Serialize());
  ASSERT_TRUE(honest.ok()) << honest.status();
  EXPECT_EQ(honest->batch.size(), 50u);
}

// --- Frame-level fuzzing against a live daemon ---
//
// The deserializer sweeps above feed bytes straight to parsers; these
// feed hostile *frames* to a real TcpSspDaemon through raw sockets. The
// invariant: a hostile connection may get kBadRequest or be dropped, but
// the daemon keeps serving healthy clients afterwards.

int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  return fd;
}

void RawSend(int fd, const Bytes& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return;  // Daemon may legitimately drop us mid-send.
    sent += static_cast<size_t>(n);
  }
}

Bytes Framed(const Bytes& payload) {
  Bytes out;
  uint32_t len = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<uint8_t>(len >> (8 * i)));
  }
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

class FrameFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto daemon = ssp::TcpSspDaemon::Start(&server_, 0);
    ASSERT_TRUE(daemon.ok()) << daemon.status();
    daemon_ = std::move(*daemon);
  }
  void TearDown() override { daemon_->Shutdown(); }

  /// The post-condition of every hostile exchange.
  void ExpectStillServing(int round) {
    auto channel = ssp::TcpSspChannel::Connect("127.0.0.1", daemon_->port());
    ASSERT_TRUE(channel.ok()) << channel.status();
    Bytes payload = {static_cast<uint8_t>(round)};
    auto put = (*channel)->Call(
        ssp::Request::PutMetadata(9000 + round, 0, payload));
    ASSERT_TRUE(put.ok()) << put.status();
    EXPECT_TRUE(put->ok());
    auto get = (*channel)->Call(ssp::Request::GetMetadata(9000 + round, 0));
    ASSERT_TRUE(get.ok());
    EXPECT_EQ(get->payload, payload);
  }

  ssp::SspServer server_;
  std::unique_ptr<ssp::TcpSspDaemon> daemon_;
};

TEST_F(FrameFuzzTest, TruncatedHeaderThenClose) {
  int fd = RawConnect(daemon_->port());
  RawSend(fd, Bytes{0xAB, 0xCD});  // Half a length header, then vanish.
  ::close(fd);
  ExpectStillServing(0);
}

TEST_F(FrameFuzzTest, HeaderWithoutPayloadThenClose) {
  int fd = RawConnect(daemon_->port());
  RawSend(fd, Bytes{100, 0, 0, 0});  // Promises 100 bytes, delivers none.
  ::close(fd);
  ExpectStillServing(1);
}

TEST_F(FrameFuzzTest, OversizedLengthPrefixIsDroppedNotAllocated) {
  // A 4-byte header claiming a 2GB frame: the daemon must refuse (drop
  // the connection) rather than try to buffer it.
  int fd = RawConnect(daemon_->port());
  RawSend(fd, Bytes{0xFF, 0xFF, 0xFF, 0x7F});
  uint8_t byte;
  EXPECT_LE(::recv(fd, &byte, 1, 0), 0);  // Dropped, no reply frame.
  ::close(fd);
  ExpectStillServing(2);
}

TEST_F(FrameFuzzTest, GarbageFramesGetBadRequestAndServiceContinues) {
  Rng rng(4242);
  for (int round = 0; round < 8; ++round) {
    int fd = RawConnect(daemon_->port());
    Bytes garbage = rng.NextBytes(1 + rng.NextBelow(300));
    RawSend(fd, Framed(garbage));
    // The daemon answers each well-framed garbage payload with a framed
    // kBadRequest response (unless the bytes happen to parse, in which
    // case any valid response is fine).
    uint8_t header[4];
    ssize_t n = ::recv(fd, header, sizeof(header), MSG_WAITALL);
    ASSERT_EQ(n, 4);
    uint32_t len = static_cast<uint32_t>(header[0]) |
                   (static_cast<uint32_t>(header[1]) << 8) |
                   (static_cast<uint32_t>(header[2]) << 16) |
                   (static_cast<uint32_t>(header[3]) << 24);
    ASSERT_GT(len, 0u);
    ASSERT_LE(len, 1u << 20);
    Bytes body(len);
    ASSERT_EQ(::recv(fd, body.data(), len, MSG_WAITALL),
              static_cast<ssize_t>(len));
    auto resp = ssp::Response::Deserialize(body);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ::close(fd);
  }
  ExpectStillServing(3);
}

TEST_F(FrameFuzzTest, BatchCountLieOverTheWireGetsBadRequest) {
  int fd = RawConnect(daemon_->port());
  RawSend(fd, Framed(BatchCountLieRequest(100'000'000, 4096)));
  uint8_t header[4];
  ASSERT_EQ(::recv(fd, header, sizeof(header), MSG_WAITALL), 4);
  uint32_t len = static_cast<uint32_t>(header[0]) |
                 (static_cast<uint32_t>(header[1]) << 8) |
                 (static_cast<uint32_t>(header[2]) << 16) |
                 (static_cast<uint32_t>(header[3]) << 24);
  Bytes body(len);
  ASSERT_EQ(::recv(fd, body.data(), len, MSG_WAITALL),
            static_cast<ssize_t>(len));
  auto resp = ssp::Response::Deserialize(body);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->status, ssp::RespStatus::kBadRequest);
  ::close(fd);
  ExpectStillServing(4);
}

}  // namespace
}  // namespace sharoes
