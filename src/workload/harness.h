// BenchWorld: one simulated deployment of a system variant, ready for a
// workload — the harness every bench binary and the evaluation tests use.
//
// The five variants of the paper's §V share the SSP, the simulated DSL
// WAN and the P4-calibrated crypto cost model; only the security design
// (and therefore the bytes moved and the primitives paid for) differs.

#ifndef SHAROES_WORKLOAD_HARNESS_H_
#define SHAROES_WORKLOAD_HARNESS_H_

#include <functional>
#include <memory>
#include <string>

#include "baselines/baseline.h"
#include "core/client.h"
#include "core/migration.h"
#include "net/network_model.h"
#include "ssp/ssp_server.h"

namespace sharoes::workload {

enum class SystemVariant {
  kNoEncMdD = 0,
  kNoEncMd = 1,
  kSharoes = 2,
  kPublic = 3,
  kPubOpt = 4,
};

std::string VariantName(SystemVariant v);

/// The variants compared in each figure of the paper.
inline std::vector<SystemVariant> AllVariants() {
  return {SystemVariant::kNoEncMdD, SystemVariant::kNoEncMd,
          SystemVariant::kSharoes, SystemVariant::kPublic,
          SystemVariant::kPubOpt};
}
inline std::vector<SystemVariant> MacroVariants() {  // Figures 10-12.
  return {SystemVariant::kNoEncMdD, SystemVariant::kNoEncMd,
          SystemVariant::kSharoes, SystemVariant::kPubOpt};
}

struct BenchWorldOptions {
  SystemVariant variant = SystemVariant::kSharoes;
  net::NetworkModel network = net::NetworkModel::PaperDsl();
  /// User identity key size. 2048 (the paper's NIST parameter set) keeps
  /// the PUBLIC baseline's RSA block counts faithful.
  size_t user_key_bits = 2048;
  /// Signing keys are served from a pool to keep wall-clock time low
  /// (virtual keygen cost is charged per request regardless).
  size_t signing_key_pool = 128;
  /// The paper's testbed is a single-user client; the PUBLIC/PUB-OPT
  /// per-user replication cost scales with this.
  size_t registered_users = 1;
  core::Scheme scheme = core::Scheme::kScheme2;
  /// Batched-read knob (Sharoes variant only). 0 pins the client to one
  /// get per round trip — the unbatched comparator the read-RTT benchmark
  /// measures against.
  size_t readahead_blocks = 32;
  /// Write-behind knob (Sharoes variant only): mutating sub-ops staged
  /// per flush. 0 = one round trip per logical op, the unbatched
  /// comparator the write-RTT benchmark measures against.
  size_t write_batch_ops = 0;
};

/// A provisioned single-client deployment of one variant.
class BenchWorld {
 public:
  explicit BenchWorld(const BenchWorldOptions& opts);
  ~BenchWorld();

  /// The benchmark client (mounted, caches empty, clock at zero).
  core::FsClient& client() { return *client_; }
  SimClock& clock() { return clock_; }
  const BenchWorldOptions& options() const { return opts_; }
  ssp::SspServer& server() { return server_; }
  crypto::CryptoEngine& engine() { return *engine_; }
  net::Transport& transport() { return *transport_; }

  /// Runs `fn` and returns the virtual cost it accrued.
  CostSnapshot Measure(const std::function<void()>& fn);

  /// Clears client caches and zeroes the clock (fresh-run conditions).
  void Reset();
  void SetCacheBytes(size_t bytes);

  /// The uid of the benchmark user.
  static constexpr fs::UserId kBenchUser = 100;

 private:
  BenchWorldOptions opts_;
  SimClock clock_;
  core::IdentityDirectory identity_;
  ssp::SspServer server_;
  std::unique_ptr<crypto::CryptoEngine> admin_engine_;
  std::unique_ptr<crypto::CryptoEngine> engine_;
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<ssp::SspConnection> conn_;
  std::unique_ptr<core::FsClient> client_;
  crypto::RsaPrivateKey bench_user_priv_;
};

}  // namespace sharoes::workload

#endif  // SHAROES_WORKLOAD_HARNESS_H_
