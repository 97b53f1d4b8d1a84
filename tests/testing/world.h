// Test harness: a small enterprise world (users, groups, SSP, clients)
// wired together for functional tests. Crypto and network cost models are
// zeroed so tests exercise behaviour, not the simulated timeline (cost
// tests build their own world with paper-calibrated models).

#ifndef SHAROES_TESTS_TESTING_WORLD_H_
#define SHAROES_TESTS_TESTING_WORLD_H_

#include <map>
#include <memory>
#include <string>

#include "core/client.h"
#include "core/migration.h"
#include "net/network_model.h"
#include "ssp/ssp_server.h"

namespace sharoes::testing {

constexpr fs::UserId kAlice = 100;
constexpr fs::UserId kBob = 101;
constexpr fs::UserId kCarol = 102;
constexpr fs::GroupId kEng = 500;   // alice, bob
constexpr fs::GroupId kSales = 501; // carol

/// A complete functional-test world.
class World {
 public:
  struct Options {
    core::Scheme scheme = core::Scheme::kScheme2;
    size_t cache_bytes = 64ull << 20;
    size_t user_key_bits = 512;   // Small keys: fast tests, same logic.
    size_t signing_key_pool = 0;  // Fresh signing keys by default.
    uint64_t seed = 0x5EED;
    // Batched-read knob, passed straight into ClientOptions so tests can
    // pit the batched and per-block (0) wire behaviours against each other.
    size_t readahead_blocks = 32;
    // Write-behind knob (0 = immediate per-op round trips, pinned here
    // although the library stages by default).
    size_t write_batch_ops = 0;
  };

  World() : World(Options()) {}
  explicit World(const Options& opts) : opts_(opts) {
    crypto::CryptoEngineOptions eng_opts;
    eng_opts.cost_model = crypto::CryptoCostModel::Zero();
    eng_opts.signing_key_pool = opts.signing_key_pool;
    eng_opts.rng_seed = opts.seed;
    admin_engine_ = std::make_unique<crypto::CryptoEngine>(&clock_, eng_opts);

    core::Provisioner::Options prov_opts;
    prov_opts.scheme = opts.scheme;
    prov_opts.user_key_bits = opts.user_key_bits;
    provisioner_ = std::make_unique<core::Provisioner>(
        &identity_, &server_, admin_engine_.get(), prov_opts);

    AddUser(kAlice, "alice");
    AddUser(kBob, "bob");
    AddUser(kCarol, "carol");
    auto eng = provisioner_->CreateGroup(kEng, "eng", {kAlice, kBob});
    auto sales = provisioner_->CreateGroup(kSales, "sales", {kCarol});
    (void)eng;
    (void)sales;
  }

  void AddUser(fs::UserId uid, const std::string& name) {
    auto kp = provisioner_->CreateUser(uid, name);
    user_keys_[uid] = kp->priv;
  }

  /// Migrates the given tree and mounts a client for each user.
  Status MigrateAndMountAll(const core::LocalNode& root) {
    auto stats = provisioner_->Migrate(root);
    if (!stats.ok()) return stats.status();
    migration_stats_ = *stats;
    for (const auto& [uid, priv] : user_keys_) {
      (void)priv;
      SHAROES_RETURN_IF_ERROR(Mount(uid));
    }
    return Status::OK();
  }

  /// Builds (or rebuilds) and mounts a client for `uid`.
  Status Mount(fs::UserId uid) {
    crypto::CryptoEngineOptions eng_opts;
    eng_opts.cost_model = crypto::CryptoCostModel::Zero();
    eng_opts.signing_key_pool = opts_.signing_key_pool;
    eng_opts.rng_seed = opts_.seed + uid;
    engines_[uid] =
        std::make_unique<crypto::CryptoEngine>(&clock_, eng_opts);
    transports_[uid] = std::make_unique<net::Transport>(
        &clock_, net::NetworkModel::Zero());
    conns_[uid] = std::make_unique<ssp::SspConnection>(
        &server_, transports_[uid].get());
    core::ClientOptions copts;
    copts.scheme = opts_.scheme;
    copts.cache_bytes = opts_.cache_bytes;
    copts.readahead_blocks = opts_.readahead_blocks;
    copts.write_batch_ops = opts_.write_batch_ops;
    copts.default_group = DefaultGroupOf(uid);
    clients_[uid] = std::make_unique<core::SharoesClient>(
        uid, user_keys_.at(uid), &identity_, conns_[uid].get(),
        engines_[uid].get(), copts);
    return clients_[uid]->Mount();
  }

  fs::GroupId DefaultGroupOf(fs::UserId uid) const {
    if (uid == kAlice || uid == kBob) return kEng;
    if (uid == kCarol) return kSales;
    return fs::kInvalidGroup;
  }

  core::SharoesClient& client(fs::UserId uid) { return *clients_.at(uid); }
  /// The per-user simulated link; counters() gives wire round trips and
  /// bytes, which is what the round-trip benchmarks and tests assert on.
  net::Transport& transport(fs::UserId uid) { return *transports_.at(uid); }
  /// The per-user crypto engine; op_counts() gives its RSA/AEAD/sign ops.
  crypto::CryptoEngine& engine(fs::UserId uid) { return *engines_.at(uid); }
  core::Provisioner& provisioner() { return *provisioner_; }
  ssp::SspServer& server() { return server_; }
  core::IdentityDirectory& identity() { return identity_; }
  SimClock& clock() { return clock_; }
  const core::MigrationStats& migration_stats() const {
    return migration_stats_;
  }
  const crypto::RsaPrivateKey& user_key(fs::UserId uid) const {
    return user_keys_.at(uid);
  }

  /// The default test tree:
  ///   /               root:root   rwxr-xr-x  (owner alice for simplicity)
  ///   /home           alice:eng   rwxr-xr-x
  ///   /home/alice     alice:eng   rwxr-x--x
  ///   /home/alice/notes.txt   alice:eng  rw-r-----   "alice's notes"
  ///   /home/alice/public.txt  alice:eng  rw-r--r--   "hello world"
  ///   /home/bob       bob:eng     rwx------
  ///   /home/bob/secret.txt    bob:eng    rw-------   "bob's secret"
  ///   /shared         alice:eng   rwxrwx---
  ///   /shared/plan.md alice:eng   rw-rw----  "Q3 plan"
  static core::LocalNode DefaultTree() {
    using core::LocalNode;
    fs::Mode m;
    LocalNode root = LocalNode::Dir("", kAlice, kEng, ParseMode("rwxr-xr-x"));
    LocalNode home = LocalNode::Dir("home", kAlice, kEng,
                                    ParseMode("rwxr-xr-x"));
    LocalNode alice_home =
        LocalNode::Dir("alice", kAlice, kEng, ParseMode("rwxr-x--x"));
    alice_home.children.push_back(
        LocalNode::File("notes.txt", kAlice, kEng, ParseMode("rw-r-----"),
                        ToBytes("alice's notes")));
    alice_home.children.push_back(
        LocalNode::File("public.txt", kAlice, kEng, ParseMode("rw-r--r--"),
                        ToBytes("hello world")));
    LocalNode bob_home =
        LocalNode::Dir("bob", kBob, kEng, ParseMode("rwx------"));
    bob_home.children.push_back(
        LocalNode::File("secret.txt", kBob, kEng, ParseMode("rw-------"),
                        ToBytes("bob's secret")));
    home.children.push_back(std::move(alice_home));
    home.children.push_back(std::move(bob_home));
    LocalNode shared =
        LocalNode::Dir("shared", kAlice, kEng, ParseMode("rwxrwx---"));
    shared.children.push_back(
        LocalNode::File("plan.md", kAlice, kEng, ParseMode("rw-rw----"),
                        ToBytes("Q3 plan")));
    root.children.push_back(std::move(home));
    root.children.push_back(std::move(shared));
    (void)m;
    return root;
  }

  static fs::Mode ParseMode(const std::string& s) {
    fs::Mode m;
    bool ok = fs::Mode::Parse(s, &m);
    (void)ok;
    return m;
  }

 private:
  Options opts_;
  SimClock clock_;
  core::IdentityDirectory identity_;
  ssp::SspServer server_;
  std::unique_ptr<crypto::CryptoEngine> admin_engine_;
  std::unique_ptr<core::Provisioner> provisioner_;
  core::MigrationStats migration_stats_;
  std::map<fs::UserId, crypto::RsaPrivateKey> user_keys_;
  std::map<fs::UserId, std::unique_ptr<crypto::CryptoEngine>> engines_;
  std::map<fs::UserId, std::unique_ptr<net::Transport>> transports_;
  std::map<fs::UserId, std::unique_ptr<ssp::SspConnection>> conns_;
  std::map<fs::UserId, std::unique_ptr<core::SharoesClient>> clients_;
};

}  // namespace sharoes::testing

#endif  // SHAROES_TESTS_TESTING_WORLD_H_
