// The full-stack client workload used by the fault-tolerance and
// crash-recovery suites: a provisioned enterprise, a mounted
// SharoesClient over a real TCP channel, and the five-phase Andrew-style
// op sequence whose observable results fold into a byte-comparable
// transcript. Two runs are equivalent iff their transcripts are
// byte-identical.

#ifndef SHAROES_TESTS_TESTING_ANDREW_CLIENT_H_
#define SHAROES_TESTS_TESTING_ANDREW_CLIENT_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/migration.h"
#include "core/retrying_connection.h"
#include "ssp/tcp_service.h"
#include "testing/restartable.h"

namespace sharoes::testing {

constexpr fs::UserId kAlice = 100;
constexpr fs::GroupId kStaff = 500;

inline Result<Bytes> SlurpFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no " + path);
  Bytes data;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

inline Status SpillFile(const std::string& path, const Bytes& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  size_t n = std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return n == data.size() ? Status::OK() : Status::IoError("short write");
}

/// The enterprise side: identity directory + alice's key, provisioned
/// once over the wire into the daemon's (initially empty) store.
struct Enterprise {
  SimClock clock;
  std::unique_ptr<crypto::CryptoEngine> engine;
  core::IdentityDirectory identity;
  crypto::RsaPrivateKey alice_key;
};

inline std::unique_ptr<Enterprise> ProvisionOverTcp(
    RestartableDaemon* daemon) {
  auto ent = std::make_unique<Enterprise>();
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.rng_seed = 4242;
  ent->engine = std::make_unique<crypto::CryptoEngine>(&ent->clock, eng_opts);

  core::Provisioner::Options popts;
  popts.user_key_bits = 512;
  core::Provisioner prov(&ent->identity, /*server=*/nullptr,
                         ent->engine.get(), popts);
  auto admin = ssp::TcpSspChannel::Connect("127.0.0.1", daemon->port());
  EXPECT_TRUE(admin.ok()) << admin.status();
  prov.set_remote_channel(admin->get());

  auto alice = prov.CreateUser(kAlice, "alice");
  EXPECT_TRUE(alice.ok());
  ent->alice_key = alice->priv;
  EXPECT_TRUE(prov.CreateGroup(kStaff, "staff", {kAlice}).ok());
  core::LocalNode root = core::LocalNode::Dir("", kAlice, kStaff,
                                              fs::Mode::FromOctal(0755));
  EXPECT_TRUE(prov.Migrate(root).ok());
  return ent;
}

/// One mounted client for a run, over whatever channel the run uses,
/// staging `write_batch_ops` sub-ops per flush (0 = the per-op wire shape).
inline std::unique_ptr<core::SharoesClient> MakeClient(
    Enterprise* ent, ssp::SspChannel* channel, crypto::CryptoEngine* engine,
    size_t write_batch_ops = core::ClientOptions{}.write_batch_ops) {
  core::ClientOptions copts;
  copts.default_group = kStaff;
  copts.write_batch_ops = write_batch_ops;
  return std::make_unique<core::SharoesClient>(
      kAlice, ent->alice_key, &ent->identity, channel, engine, copts);
}

inline std::unique_ptr<crypto::CryptoEngine> MakeEngine(SimClock* clock,
                                                        uint64_t seed) {
  crypto::CryptoEngineOptions eng_opts;
  eng_opts.cost_model = crypto::CryptoCostModel::Zero();
  eng_opts.rng_seed = seed;
  return std::make_unique<crypto::CryptoEngine>(clock, eng_opts);
}

/// Dials a started daemon; its port holds across restarts.
inline core::RetryingConnection::ChannelFactory TcpFactory(
    RestartableDaemon* daemon) {
  return core::RetryingConnection::Dialer(
      "127.0.0.1", daemon->port(),
      net::TcpTimeouts{/*connect_ms=*/2000, /*send_ms=*/5000,
                       /*recv_ms=*/5000});
}

constexpr int kSourceFiles = 5;

inline Bytes SourceContent(int i) {
  Bytes content;
  for (int b = 0; b < 220 + 13 * i; ++b) {
    content.push_back(static_cast<uint8_t>((b * 7 + i * 31) & 0xFF));
  }
  return content;
}

/// The five Andrew phases as client ops: build the skeleton, copy
/// sources in, stat everything, read every byte, "compile" (read source,
/// write derived object, link = read objects back). Every observable
/// result is appended to the returned transcript.
inline Result<Bytes> RunAndrewSequence(core::SharoesClient* client) {
  BinaryWriter transcript;
  // Phase 1: directory skeleton.
  for (const char* dir : {"/proj", "/proj/src", "/proj/obj"}) {
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(0755);
    SHAROES_RETURN_IF_ERROR(client->Mkdir(dir, opts));
  }
  // Phase 2: copy the source tree in.
  for (int i = 0; i < kSourceFiles; ++i) {
    std::string path = "/proj/src/f" + std::to_string(i) + ".c";
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(0644);
    SHAROES_RETURN_IF_ERROR(client->Create(path, opts));
    SHAROES_RETURN_IF_ERROR(client->WriteFile(path, SourceContent(i)));
  }
  // Phase 3: stat every file without touching data.
  for (int i = 0; i < kSourceFiles; ++i) {
    std::string path = "/proj/src/f" + std::to_string(i) + ".c";
    SHAROES_ASSIGN_OR_RETURN(fs::InodeAttrs attrs, client->Getattr(path));
    transcript.PutString(attrs.mode.ToString());
    transcript.PutU32(attrs.owner);
    transcript.PutU32(attrs.group);
    transcript.PutU8(static_cast<uint8_t>(attrs.type));
  }
  // Phase 4: read every byte of every file, cold.
  client->DropCaches();
  for (int i = 0; i < kSourceFiles; ++i) {
    std::string path = "/proj/src/f" + std::to_string(i) + ".c";
    SHAROES_ASSIGN_OR_RETURN(Bytes content, client->Read(path));
    transcript.PutBytes(content);
  }
  // Phase 5: compile and link.
  for (int i = 0; i < kSourceFiles; ++i) {
    std::string src = "/proj/src/f" + std::to_string(i) + ".c";
    std::string obj = "/proj/obj/f" + std::to_string(i) + ".o";
    SHAROES_ASSIGN_OR_RETURN(Bytes content, client->Read(src));
    for (uint8_t& b : content) b ^= 0x5A;  // "compilation".
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(0644);
    SHAROES_RETURN_IF_ERROR(client->Create(obj, opts));
    SHAROES_RETURN_IF_ERROR(client->WriteFile(obj, content));
  }
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> objects,
                           client->Readdir("/proj/obj"));
  for (const std::string& name : objects) transcript.PutString(name);
  client->DropCaches();
  for (int i = 0; i < kSourceFiles; ++i) {
    std::string obj = "/proj/obj/f" + std::to_string(i) + ".o";
    SHAROES_ASSIGN_OR_RETURN(Bytes content, client->Read(obj));
    transcript.PutBytes(content);
  }
  return transcript.Take();
}

}  // namespace sharoes::testing

#endif  // SHAROES_TESTS_TESTING_ANDREW_CLIENT_H_
