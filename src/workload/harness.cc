#include "workload/harness.h"

#include <map>

#include "crypto/rsa.h"

namespace sharoes::workload {

namespace {

// Every world pays the paper-calibrated crypto prices and starts with a
// 64 MiB client cache (cache sweeps go through SetCacheBytes); its engines
// are seeded from kWorldSeed.
constexpr size_t kCacheBytes = 64ull << 20;
constexpr uint64_t kWorldSeed = 0xBE4C;

/// Process-wide cache of user identity keys: RSA-2048 generation is the
/// only genuinely slow wall-clock setup step, and benchmarks build many
/// worlds (per variant, per cache size). Key *usage* costs are virtual,
/// so reuse across worlds is invisible to the measured timeline.
const crypto::RsaKeyPair& CachedUserKey(size_t bits, size_t index) {
  static auto* cache =
      new std::map<std::pair<size_t, size_t>, crypto::RsaKeyPair>();
  auto key = std::make_pair(bits, index);
  auto it = cache->find(key);
  if (it == cache->end()) {
    Rng rng(0xAB5Eull ^ (bits * 1315423911ull) ^ (index * 2654435761ull));
    it = cache->emplace(key, crypto::GenerateRsaKeyPair(bits, rng)).first;
  }
  return it->second;
}

baselines::SecurityMode ModeFor(SystemVariant v) {
  switch (v) {
    case SystemVariant::kNoEncMdD:
      return baselines::SecurityMode::kNoEncMdD;
    case SystemVariant::kNoEncMd:
      return baselines::SecurityMode::kNoEncMd;
    case SystemVariant::kPublic:
      return baselines::SecurityMode::kPublic;
    case SystemVariant::kPubOpt:
      return baselines::SecurityMode::kPubOpt;
    case SystemVariant::kSharoes:
      break;
  }
  return baselines::SecurityMode::kNoEncMdD;  // Unreachable.
}

}  // namespace

std::string VariantName(SystemVariant v) {
  if (v == SystemVariant::kSharoes) return "SHAROES";
  return baselines::SecurityModeName(ModeFor(v));
}

BenchWorld::BenchWorld(const BenchWorldOptions& opts) : opts_(opts) {
  crypto::CryptoEngineOptions admin_opts;
  admin_opts.signing_key_pool = opts.signing_key_pool;
  admin_opts.rng_seed = kWorldSeed + 1;
  admin_engine_ = std::make_unique<crypto::CryptoEngine>(&clock_, admin_opts);

  // Register the enterprise users (the bench user is the first).
  for (size_t i = 0; i < opts.registered_users; ++i) {
    const crypto::RsaKeyPair& kp = CachedUserKey(opts.user_key_bits, i);
    core::UserInfo info;
    info.id = kBenchUser + static_cast<fs::UserId>(i);
    info.name = "user" + std::to_string(i);
    info.public_key = kp.pub;
    Status s = identity_.AddUser(std::move(info));
    (void)s;
  }
  bench_user_priv_ = CachedUserKey(opts.user_key_bits, 0).priv;

  // Base tree: "/" and "/work", both owned by the bench user.
  core::LocalNode root = core::LocalNode::Dir(
      "", kBenchUser, fs::kInvalidGroup, fs::Mode::FromOctal(0755));
  root.children.push_back(core::LocalNode::Dir(
      "work", kBenchUser, fs::kInvalidGroup, fs::Mode::FromOctal(0755)));

  if (opts.variant == SystemVariant::kSharoes) {
    core::Provisioner::Options popts;
    popts.scheme = opts.scheme;
    popts.user_key_bits = opts.user_key_bits;
    core::Provisioner prov(&identity_, &server_, admin_engine_.get(), popts);
    auto stats = prov.Migrate(root);
    assert(stats.ok());
    (void)stats;
  } else {
    baselines::BaselineOptions bopts;
    bopts.mode = ModeFor(opts.variant);
    baselines::BaselineProvisioner prov(&identity_, &server_,
                                        admin_engine_.get(), bopts);
    Status s = prov.Migrate(root);
    assert(s.ok());
    (void)s;
  }

  crypto::CryptoEngineOptions eng_opts;
  eng_opts.signing_key_pool = opts.signing_key_pool;
  eng_opts.rng_seed = kWorldSeed + 2;
  engine_ = std::make_unique<crypto::CryptoEngine>(&clock_, eng_opts);
  transport_ = std::make_unique<net::Transport>(&clock_, opts.network);
  conn_ = std::make_unique<ssp::SspConnection>(&server_, transport_.get());

  if (opts.variant == SystemVariant::kSharoes) {
    core::ClientOptions copts;
    copts.scheme = opts.scheme;
    copts.cache_bytes = kCacheBytes;
    copts.readahead_blocks = opts.readahead_blocks;
    copts.write_batch_ops = opts.write_batch_ops;
    client_ = std::make_unique<core::SharoesClient>(
        kBenchUser, bench_user_priv_, &identity_, conn_.get(), engine_.get(),
        copts);
  } else {
    baselines::BaselineOptions bopts;
    bopts.mode = ModeFor(opts.variant);
    bopts.cache_bytes = kCacheBytes;
    client_ = std::make_unique<baselines::BaselineClient>(
        kBenchUser, bench_user_priv_, &identity_, conn_.get(), engine_.get(),
        bopts);
  }
  Status s = client_->Mount();
  assert(s.ok());
  (void)s;
  Reset();
}

BenchWorld::~BenchWorld() = default;

CostSnapshot BenchWorld::Measure(const std::function<void()>& fn) {
  CostSnapshot before = clock_.snapshot();
  fn();
  return clock_.snapshot() - before;
}

void BenchWorld::Reset() {
  clock_.Reset();
  transport_->ResetCounters();
  engine_->ResetOpCounts();
  client_->DropCaches();
}

void BenchWorld::SetCacheBytes(size_t bytes) {
  client_->cache().set_capacity(bytes);
}

}  // namespace sharoes::workload
