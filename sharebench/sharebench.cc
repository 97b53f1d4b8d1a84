// sharebench: the repository benchmark. Three users of one enterprise run
// the PostMark transaction mix (paper §V-B, src/workload/postmark.{h,cc})
// over one shared file set, through live SSP daemons (ssp::TcpSspDaemon on
// loopback). Each user is one client thread on the production client
// stack: core::SharoesClient over a core::RetryingConnection, or over a
// core::ShardedChannel for the cluster workload. As in PostMark, a user
// starts its next transaction as soon as the previous one returns.
//
// The file set and the transactions are PostMark's (workload::PostmarkParams
// and RunPostmark): 500 files of 500 B - 9.77 KB in 25 directories; each
// transaction is a data operation (read or append of 64 - 512 B, even odds)
// followed by a file-set operation (create a file of 500 B - 9.77 KB, or
// delete one, even odds). Sharing shapes only whose files an operation may
// touch: the 500 files belong to the three users in turn and are readable
// by their group, a read picks any of them, an append one of the user's
// own, and creates and deletes work in the user's private home directory,
// whose file count is held between 12 and 20 (see kPrivateStart).
//
// Every operation is timed on two clocks:
//   wall  steady_clock around the client call: real crypto, real
//         sockets, real daemons.
//   wan   the client's SimClock: the paper's DSL link model
//         (net::NetworkModel::PaperDsl) charged once per round trip with
//         the exchanged byte counts, plus the paper-calibrated crypto and
//         client-overhead prices. This is the latency the paper's user on
//         home DSL would see for the same operation sequence.
// The end-to-end metrics are the WAN-clock latencies, wall-clock
// throughput and set-up time. The wall-clock latencies are per-layer
// figures: on a shared host they follow its speed, which drifts by up to
// 2x over minutes, far beyond any bound a regression check could use.
//
// Workloads (--workload):
//   postmark          one daemon, its store in memory (`sharoes_sspd`
//                     without --wal): the client, wire and serving path
//                     without the disk.
//   postmark_cluster  three daemons, each logging to a WAL, every object
//                     replicated three ways with majority quorums (K=3,
//                     W=R=2): the durable, replicated deployment.
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same load
// with the crypto engine in ChargePolicy::kMeasured (crypto charged at its
// real duration) and reports per-layer splits instead. --seed fixes the
// transaction sequence. The initial file set and the keys are the same in
// every run. The timed set-up (setup_s, the median of kSetups) provisions
// the stores, starts the daemons and mounts the users; after it each user
// reads every shared file once (UserLoop::Warm), untimed and straight
// from the servers in process (Deployment::SetDirect), and then the
// measured window starts.
//
// Output: a summary on stderr, and as the last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "core/identity.h"
#include "core/migration.h"
#include "core/retrying_connection.h"
#include "core/sharded_channel.h"
#include "crypto/keys.h"
#include "net/network_model.h"
#include "obs/metrics.h"
#include "ssp/placement.h"
#include "ssp/tcp_service.h"
#include "ssp/wal.h"
#include "util/random.h"
#include "util/sim_clock.h"
#include "workload/postmark.h"

namespace sharoes::sharebench {
namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t Nanos(SteadyClock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

/// Owns the directories the users share; runs no transactions. With a user
/// as the owner, that user would read the shared files more cheaply than
/// the other two.
constexpr fs::UserId kAdmin = 99;
constexpr fs::UserId kFirstUser = 100;
constexpr fs::GroupId kStaff = 500;
constexpr int kUsers = 3;
/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetups = 5;
/// Identity keys of users and the group. The paper uses 2048 bits; a
/// 2048-bit keygen takes seconds.
constexpr size_t kIdentityKeyBits = 1024;
constexpr uint64_t kKeySeed = 0x5348415245424E43ull;
constexpr size_t kSigningKeyPool = 4;
/// Append sizes, as RunPostmark draws them.
constexpr size_t kAppendMin = 64;
constexpr size_t kAppendMax = 512;
constexpr int kReadAttempts = 10;

const workload::PostmarkParams kPostmark;

enum Op { kRead, kReadOwn, kAppend, kCreate, kDelete, kNumOps };
const char* const kOpNames[kNumOps] = {"read", "read_own", "append", "create",
                                       "delete"};

struct Workload {
  const char* name;
  int nodes;  // Daemons. >1 = a ring with every object on all of them.
  bool wal;   // Daemons log to a WAL; otherwise the store is memory only.
};

constexpr Workload kWorkloads[] = {{"postmark", 1, false},
                                   {"postmark_cluster", 3, true}};

std::string UserName(int u) { return "user" + std::to_string(u); }
fs::UserId Uid(int u) { return kFirstUser + static_cast<fs::UserId>(u); }
std::string HomeDir(int u) { return "/home/" + UserName(u); }
std::string SubDir(int d) { return "/proj/pm" + std::to_string(d); }

// --- Self-verifying file contents ----------------------------------------
//
// Version v of a shared file is its base content followed by the appends
// made since its last rewrite, v - v mod kAppendCycle + 1 .. v, each a
// deterministic function of (file, version). A reader that knows the
// lowest version it may get can find which one it got and check every
// byte.

/// Appends a file takes before its owner rewrites it at its base size.
/// A window on a fast host appends to every file several times; if files
/// only grew, what an operation costs would grow with the number of
/// operations the host managed. The files start at points spread over the
/// cycle and are appended to in turn, so the sizes in the set stay the
/// same however many appends a run makes.
constexpr uint32_t kAppendCycle = 8;
/// How many versions a file may move on while one read of it runs.
constexpr uint32_t kVersionsAhead = 64;

Bytes Stream(uint64_t key, size_t size) {
  Bytes b(size);
  Rng(key).Fill(b.data(), size);
  return b;
}

uint64_t AppendKey(uint32_t id, uint32_t v) {
  return (static_cast<uint64_t>(id) << 32 | v) * 0x9E3779B97F4A7C15ull;
}

size_t AppendSize(uint32_t id, uint32_t v) {
  return kAppendMin + (AppendKey(id, v) >> 40) % (kAppendMax - kAppendMin + 1);
}

struct SharedFile {
  std::string path;
  fs::UserId owner;
  uint32_t id;
  size_t base_size;
  uint32_t first_version;  // Its version in the migrated tree.

  Bytes Base() const { return Stream(AppendKey(id, 0), base_size); }
  /// What the owner writes to make version v: the base at the start of a
  /// cycle, an append otherwise.
  Bytes Change(uint32_t v) const {
    if (v % kAppendCycle == 0) return Base();
    return Stream(AppendKey(id, v), AppendSize(id, v));
  }
  size_t SizeOf(uint32_t v) const {
    size_t size = base_size;
    for (uint32_t k = v - v % kAppendCycle + 1; k <= v; ++k) {
      size += AppendSize(id, k);
    }
    return size;
  }
  Bytes Content(uint32_t v) const {
    Bytes b = Base();
    for (uint32_t k = v - v % kAppendCycle + 1; k <= v; ++k) {
      const Bytes chunk = Change(k);
      b.insert(b.end(), chunk.begin(), chunk.end());
    }
    return b;
  }
  /// The first version from `from` on that `content` is, or -1.
  int64_t VersionOf(const Bytes& content, uint32_t from) const {
    for (uint32_t v = from; v < from + kVersionsAhead; ++v) {
      if (SizeOf(v) == content.size() && Content(v) == content) return v;
    }
    return -1;
  }
};

/// The i-th of n evenly spaced quantiles of PostMark's uniform size range.
/// Sizes drawn this way do not depend on the seed, and any n of them span
/// the whole range.
size_t SizeQuantile(size_t i, size_t n) {
  const double span =
      static_cast<double>(kPostmark.max_size - kPostmark.min_size);
  return kPostmark.min_size +
         static_cast<size_t>(span * (static_cast<double>(i) + 0.5) /
                             static_cast<double>(n));
}

/// A file in a user's private home directory, where the user's creates and
/// deletes go. Its contents are a function of (user, serial, size).
struct PrivateFile {
  uint32_t serial;
  size_t size;
};

/// Files each home holds at set-up, and the band its count stays in: a
/// file-set operation is a create or a delete at even odds, as in
/// PostMark, except that it creates at the floor and deletes at the
/// ceiling. A directory left to a random walk would end a run at a size
/// set by the seed and by how many operations the host managed, and what
/// a create or delete costs grows with the directory.
constexpr uint32_t kPrivateStart = 16;
constexpr size_t kPrivateFloor = 12;
constexpr size_t kPrivateCeiling = 20;

std::string PrivateName(uint32_t serial) { return "n" + std::to_string(serial); }

Bytes PrivateContent(int user, const PrivateFile& p) {
  return Stream((static_cast<uint64_t>(user) + 1) << 48 ^ p.serial, p.size);
}

std::vector<PrivateFile> StartingPrivateFiles() {
  std::vector<PrivateFile> files;
  for (uint32_t i = 0; i < kPrivateStart; ++i) {
    files.push_back(PrivateFile{i, SizeQuantile(i, kPrivateStart)});
  }
  return files;
}

/// PostMark's initial file set, shared: file i belongs to user i mod 3
/// and sits in directory i mod 25. Its base size is SizeQuantile(i, 500),
/// so the set, and the work of setting it up, do not depend on the seed,
/// and every user and directory holds the whole range.
std::vector<SharedFile> MakeFiles() {
  std::vector<SharedFile> files;
  const int n = kPostmark.files;
  for (int i = 0; i < n; ++i) {
    files.push_back(SharedFile{
        SubDir(i % kPostmark.subdirs) + "/f" + std::to_string(i),
        Uid(i % kUsers), static_cast<uint32_t>(i),
        SizeQuantile(static_cast<size_t>(i), static_cast<size_t>(n)),
        static_cast<uint32_t>(i) % kAppendCycle});
  }
  return files;
}

// --- The client's channel, on both clocks ------------------------------

/// Wraps a user's SSP channel: times every Call on the wall clock (the
/// wire: serialization, socket, kernel and daemon) and charges the DSL
/// link model for the same exchange to the user's SimClock. The time
/// spent sizing the exchange for the model is tracked so it can be taken
/// out of the operation's wall time.
class ModeledChannel : public ssp::SspChannel {
 public:
  ModeledChannel(std::unique_ptr<ssp::SspChannel> inner, SimClock* clock)
      : inner_(std::move(inner)),
        link_(clock, net::NetworkModel::PaperDsl()) {}

  Result<ssp::Response> Call(const ssp::Request& req) override {
    if (direct_ != nullptr) return direct_->Call(req);
    const auto t0 = SteadyClock::now();
    auto resp = inner_->Call(req);
    const auto t1 = SteadyClock::now();
    if (resp.ok()) {
      link_.ChargeRoundTrip(req.Serialize().size(), resp->Serialize().size());
    }
    wire_ns_ += Nanos(t1 - t0);
    model_ns_ += Nanos(SteadyClock::now() - t1);
    return resp;
  }

  /// While set, Calls go to `direct` instead, neither timed nor charged.
  void set_direct(ssp::SspChannel* direct) { direct_ = direct; }

  uint64_t wire_ns() const { return wire_ns_; }
  uint64_t model_ns() const { return model_ns_; }
  const net::Transport::Counters& counters() const { return link_.counters(); }

 private:
  std::unique_ptr<ssp::SspChannel> inner_;
  ssp::SspChannel* direct_ = nullptr;
  net::Transport link_;
  uint64_t wire_ns_ = 0;
  uint64_t model_ns_ = 0;
};

const net::TcpTimeouts kTimeouts{2000, 10000, 10000};

core::RetryingConnection::ChannelFactory TcpFactory(uint16_t port) {
  return [port]() -> Result<std::unique_ptr<ssp::SspChannel>> {
    auto channel = ssp::TcpSspChannel::Connect("127.0.0.1", port, kTimeouts);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<ssp::SspChannel>(std::move(*channel));
  };
}

/// The provisioner's bulk path into every replica: each request is
/// handled by every server in turn (and so logged by its WAL), as the
/// migration tool writes "to the SSP store directly". With K equal to
/// the number of daemons every object lives on all of them. With a
/// record set, each request is also kept, to be replayed into later
/// deployments.
class BulkChannel : public ssp::SspChannel {
 public:
  Result<ssp::Response> Call(const ssp::Request& req) override {
    if (record_ != nullptr) record_->push_back(req);
    ssp::Response resp;
    for (ssp::SspServer* s : servers_) {
      resp = s->Handle(req);
      if (!resp.ok()) return resp;
    }
    return resp;
  }
  void set_servers(std::vector<ssp::SspServer*> servers) {
    servers_ = std::move(servers);
  }
  void set_record(std::vector<ssp::Request>* record) { record_ = record; }

 private:
  std::vector<ssp::SspServer*> servers_;
  std::vector<ssp::Request>* record_ = nullptr;
};

// --- Enterprise: keys and identities, made once per process --------------
//
// RSA key generation is a seeded prime search that takes the same work in
// every run but a varying share of a noisy host's time, so the timed
// set-up starts from existing keys, as an enterprise that moves to a new
// SSP keeps its users' keys.

/// One user's client-side state that outlives a deployment.
struct Seat {
  SimClock clock;
  std::unique_ptr<crypto::CryptoEngine> engine;
  crypto::RsaPrivateKey key;
};

struct Enterprise {
  core::IdentityDirectory identity;
  std::unique_ptr<crypto::CryptoEngine> admin_engine;
  std::vector<ssp::Request> group_key_puts;  // Replayed into each store.
  std::vector<std::unique_ptr<Seat>> seats;
};

Status MakeEnterprise(bool measured_crypto, Enterprise* ent) {
  crypto::CryptoEngineOptions aopts;
  aopts.cost_model = crypto::CryptoCostModel::Zero();
  // Signing keys come from a pool filled here, as in workload::BenchWorld:
  // the RSA stand-in for the paper's ESIGN keygen costs ~10x ESIGN's and
  // would otherwise be most of every create.
  aopts.signing_key_pool = kSigningKeyPool;
  aopts.rng_seed = kKeySeed;
  ent->admin_engine = std::make_unique<crypto::CryptoEngine>(nullptr, aopts);
  for (size_t i = 0; i < kSigningKeyPool; ++i) {
    ent->admin_engine->NewSigningKeyPair();
  }
  core::Provisioner::Options popts;
  popts.user_key_bits = kIdentityKeyBits;
  core::Provisioner prov(&ent->identity, /*server=*/nullptr,
                         ent->admin_engine.get(), popts);
  BulkChannel recorder;
  recorder.set_record(&ent->group_key_puts);
  prov.set_remote_channel(&recorder);
  auto admin = prov.CreateUser(kAdmin, "admin");
  if (!admin.ok()) return admin.status();
  std::vector<fs::UserId> members;
  for (int u = 0; u < kUsers; ++u) {
    auto pair = prov.CreateUser(Uid(u), UserName(u));
    if (!pair.ok()) return pair.status();
    auto seat = std::make_unique<Seat>();
    seat->key = pair->priv;
    crypto::CryptoEngineOptions eopts;
    eopts.charge_policy = measured_crypto ? crypto::ChargePolicy::kMeasured
                                          : crypto::ChargePolicy::kCalibrated;
    eopts.signing_key_pool = kSigningKeyPool;
    eopts.rng_seed = kKeySeed + static_cast<uint64_t>(u) + 1;
    seat->engine = std::make_unique<crypto::CryptoEngine>(&seat->clock, eopts);
    for (size_t i = 0; i < kSigningKeyPool; ++i) {
      seat->engine->NewSigningKeyPair();
    }
    ent->seats.push_back(std::move(seat));
    members.push_back(Uid(u));
  }
  auto group = prov.CreateGroup(kStaff, "staff", members);
  return group.ok() ? Status::OK() : group.status();
}

/// /proj/pm<d>/f<i> (group-readable, owner-writable), /home/<user>/n<k>
/// (private).
core::LocalNode MakeTree(const std::vector<SharedFile>& files) {
  using core::LocalNode;
  const fs::Mode open_dir = fs::Mode::FromOctal(0755);
  LocalNode root = LocalNode::Dir("", kAdmin, kStaff, open_dir);
  LocalNode proj = LocalNode::Dir("proj", kAdmin, kStaff, open_dir);
  LocalNode home = LocalNode::Dir("home", kAdmin, kStaff, open_dir);
  for (int d = 0; d < kPostmark.subdirs; ++d) {
    proj.children.push_back(LocalNode::Dir("pm" + std::to_string(d), kAdmin,
                                           kStaff, open_dir));
  }
  for (const SharedFile& f : files) {
    proj.children[f.id % kPostmark.subdirs].children.push_back(
        LocalNode::File("f" + std::to_string(f.id), f.owner, kStaff,
                        fs::Mode::FromOctal(0640),
                        f.Content(f.first_version)));
  }
  for (int u = 0; u < kUsers; ++u) {
    LocalNode dir = LocalNode::Dir(UserName(u), Uid(u), kStaff,
                                   fs::Mode::FromOctal(0700));
    for (const PrivateFile& p : StartingPrivateFiles()) {
      dir.children.push_back(LocalNode::File(PrivateName(p.serial), Uid(u),
                                             kStaff, fs::Mode::FromOctal(0600),
                                             PrivateContent(u, p)));
    }
    home.children.push_back(std::move(dir));
  }
  root.children.push_back(std::move(proj));
  root.children.push_back(std::move(home));
  return root;
}

// --- Deployment: daemons, migrated file set, mounted users ---------------

struct User {
  int index = 0;
  Seat* seat = nullptr;
  std::unique_ptr<ModeledChannel> channel;
  std::unique_ptr<core::SharoesClient> client;
};

class Deployment {
 public:
  explicit Deployment(Enterprise* ent) : ent_(ent) {}
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    users_.clear();
    for (auto& d : daemons_) d->Shutdown();
    daemons_.clear();
    for (auto& s : servers_) s->set_wal(nullptr);
    wals_.clear();
    servers_.clear();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  /// Opens the stores (with fresh WALs under `dir` when the workload
  /// logs), migrates the file set into them, starts the daemons and mounts
  /// one client per user.
  Status Start(const Workload& w, const core::LocalNode& tree,
               const std::string& dir);

  std::vector<std::unique_ptr<User>>& users() { return users_; }

  /// Points every user's channel straight at the servers, in process, or
  /// back at the daemons. The untimed warm pass runs that way: through a
  /// cluster's sharded channel it would take ~40 s on a 4-vCPU host.
  void SetDirect(bool on) {
    for (auto& u : users_) u->channel->set_direct(on ? &direct_ : nullptr);
  }

 private:
  Status OpenStores(int nodes, bool wal);
  Status Provision(const core::LocalNode& tree);
  Status StartDaemons();
  std::unique_ptr<ssp::SspChannel> MakeChannel(uint64_t seed) const;
  Status MountUser(int u);

  Enterprise* ent_;
  std::string dir_;
  std::vector<std::unique_ptr<ssp::SspServer>> servers_;
  std::vector<std::unique_ptr<ssp::Wal>> wals_;
  ssp::ClusterConfig config_;
  std::string config_path_;                   // config_, saved for clients.
  std::unique_ptr<ssp::PlacementRing> ring_;  // Null for one daemon.
  std::vector<std::unique_ptr<ssp::TcpSspDaemon>> daemons_;
  std::vector<std::unique_ptr<User>> users_;
  BulkChannel direct_;  // Every server, in process; see SetDirect.
};

Status Deployment::OpenStores(int nodes, bool wal) {
  for (int i = 0; i < nodes; ++i) {
    servers_.push_back(std::make_unique<ssp::SspServer>());
    ssp::SspServer* server = servers_.back().get();
    // As `sharoes_sspd --cluster`: tombstones on before WAL recovery.
    if (nodes > 1) server->store().set_tombstones_enabled(true);
    if (!wal) continue;
    const std::string wal_dir = dir_ + "/node" + std::to_string(i);
    std::filesystem::create_directories(wal_dir);
    // `--wal-sync interval`: appends on the ack path, fsync every 50 ms
    // in the background. An fsync per ack would time the disk and its
    // other users more than the SSP.
    ssp::WalOptions wopts;
    wopts.sync = ssp::WalSyncPolicy::kInterval;
    auto opened = ssp::Wal::Open(wal_dir, wopts, &server->store());
    if (!opened.ok()) return opened.status();
    wals_.push_back(std::move(*opened));
    server->set_wal(wals_.back().get());
  }
  return Status::OK();
}

Status Deployment::Provision(const core::LocalNode& tree) {
  BulkChannel bulk;
  std::vector<ssp::SspServer*> targets;
  for (auto& s : servers_) targets.push_back(s.get());
  bulk.set_servers(std::move(targets));
  for (const ssp::Request& req : ent_->group_key_puts) {
    auto resp = bulk.Call(req);
    if (!resp.ok()) return resp.status();
    if (!resp->ok()) return Status::IoError("group key put refused");
  }
  core::Provisioner::Options popts;
  popts.user_key_bits = kIdentityKeyBits;
  core::Provisioner prov(&ent_->identity, /*server=*/nullptr,
                         ent_->admin_engine.get(), popts);
  prov.set_remote_channel(&bulk);
  auto migrated = prov.Migrate(tree);
  return migrated.ok() ? Status::OK() : migrated.status();
}

Status Deployment::StartDaemons() {
  std::vector<ssp::SspServer*> targets;
  for (auto& s : servers_) targets.push_back(s.get());
  direct_.set_servers(std::move(targets));
  const uint32_t k = static_cast<uint32_t>(servers_.size());
  config_.replication = k;
  config_.write_quorum = k / 2 + 1;
  config_.read_quorum = k / 2 + 1;
  for (size_t i = 0; i < servers_.size(); ++i) {
    auto daemon = ssp::TcpSspDaemon::Start(servers_[i].get(), 0);
    if (!daemon.ok()) return daemon.status();
    config_.nodes.push_back(ssp::ClusterNode{static_cast<uint32_t>(i),
                                             "127.0.0.1", (*daemon)->port()});
    daemons_.push_back(std::move(*daemon));
  }
  if (k > 1) {
    auto ring = ssp::PlacementRing::Build(config_);
    if (!ring.ok()) return ring.status();
    ring_ = std::make_unique<ssp::PlacementRing>(std::move(*ring));
    for (size_t i = 0; i < servers_.size(); ++i) {
      servers_[i]->set_placement(ring_.get(), static_cast<uint32_t>(i));
    }
    std::filesystem::create_directories(dir_);
    config_path_ = dir_ + "/cluster.conf";
    SHAROES_RETURN_IF_ERROR(config_.SaveToFile(config_path_));
  }
  return Status::OK();
}

std::unique_ptr<ssp::SspChannel> Deployment::MakeChannel(uint64_t seed) const {
  if (ring_ == nullptr) {
    core::RetryOptions retry;
    retry.seed = seed;
    return std::make_unique<core::RetryingConnection>(
        TcpFactory(config_.nodes[0].port), retry);
  }
  // As `sharoes_cli --cluster FILE`.
  core::ShardedChannelOptions sopts;
  sopts.seed = seed;
  sopts.timeouts = kTimeouts;
  auto channel = core::ShardedChannel::Open(config_path_, sopts);
  if (!channel.ok()) return nullptr;
  return std::move(*channel);
}

Status Deployment::MountUser(int u) {
  auto user = std::make_unique<User>();
  user->index = u;
  user->seat = ent_->seats[static_cast<size_t>(u)].get();
  auto inner = MakeChannel(kKeySeed + static_cast<uint64_t>(u) + 7);
  if (inner == nullptr) return Status::IoError("no client channel");
  user->channel =
      std::make_unique<ModeledChannel>(std::move(inner), &user->seat->clock);
  core::ClientOptions copts;
  copts.default_group = kStaff;
  user->client = std::make_unique<core::SharoesClient>(
      Uid(u), user->seat->key, &ent_->identity, user->channel.get(),
      user->seat->engine.get(), copts);
  SHAROES_RETURN_IF_ERROR(user->client->Mount());
  // Warm the directory tables and the group secret every user needs, so
  // the measured window starts from a client that has been open a while.
  std::vector<std::string> dirs = {"/proj", HomeDir(u)};
  for (int d = 0; d < kPostmark.subdirs; ++d) dirs.push_back(SubDir(d));
  for (const std::string& dir : dirs) {
    auto names = user->client->Readdir(dir);
    if (!names.ok()) return names.status();
  }
  users_.push_back(std::move(user));
  return Status::OK();
}

Status Deployment::Start(const Workload& w, const core::LocalNode& tree,
                         const std::string& dir) {
  dir_ = dir;
  SHAROES_RETURN_IF_ERROR(OpenStores(w.nodes, w.wal));
  SHAROES_RETURN_IF_ERROR(Provision(tree));
  SHAROES_RETURN_IF_ERROR(StartDaemons());
  for (int u = 0; u < kUsers; ++u) SHAROES_RETURN_IF_ERROR(MountUser(u));
  return Status::OK();
}

// --- The measured loop -----------------------------------------------------

/// The measured window is cut into this many equal slices; a wall-clock
/// percentile, and the throughput, are reported as the median of their
/// per-slice values, so a burst of load from outside the benchmark moves
/// at most a few slices.
constexpr int kSlices = 10;

/// What one user measured.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reopens = 0;  // Reads retried after a torn read.
  uint64_t ops[kNumOps] = {};
  std::vector<double> wall_ms[kNumOps][kSlices];
  std::vector<double> wan_ms[kNumOps];
  uint64_t op_wall_ns = 0;  // All ops; model sizing and back-off excluded.
  uint64_t wire_ns = 0;
  uint64_t payload_bytes = 0;  // File bytes read or written.
  CostSnapshot clock;          // SimClock delta over the window.
  net::Transport::Counters link;
  crypto::CryptoEngine::OpCounts crypto;
  uint64_t round_trips = 0;
  std::string first_error;
};

/// Deals items, given in size order, in passes that visit every item
/// once. A pass walks the list at a stride of about n/phi from a seeded
/// start, so any run of consecutive deals spreads evenly over the sizes: a
/// mean over the first few operations then depends on the program, not on
/// which sizes the seed drew.
template <typename T>
class Deck {
 public:
  explicit Deck(std::vector<T> items) : items_(std::move(items)) {
    const size_t n = items_.size();
    stride_ = std::max<size_t>(1, static_cast<size_t>(n * 0.618));
    while (std::gcd(stride_, n) != 1) ++stride_;
  }
  const T& Deal(Rng& rng) {
    if (left_ == 0) {
      next_ = rng.NextBelow(items_.size());
      left_ = items_.size();
    }
    const T& item = items_[next_];
    next_ = (next_ + stride_) % items_.size();
    --left_;
    return item;
  }

 private:
  std::vector<T> items_;
  size_t stride_ = 1;
  size_t next_ = 0;
  size_t left_ = 0;
};

/// The sizes a user's creates take: this many size quantiles, dealt from
/// a Deck.
constexpr size_t kCreateSizes = 64;

std::vector<size_t> CreateSizes() {
  std::vector<size_t> sizes;
  for (size_t i = 0; i < kCreateSizes; ++i) {
    sizes.push_back(SizeQuantile(i, kCreateSizes));
  }
  return sizes;
}

/// Published file versions: an owner stores after its Close returns, so
/// a reader that loads v before reading must see >= v.
using VersionBoard = std::vector<std::atomic<uint32_t>>;

/// One user's PostMark transactions.
class UserLoop {
 public:
  UserLoop(const std::vector<SharedFile>& files, User* user,
           VersionBoard* versions, uint64_t seed)
      : files_(files),
        user_(user),
        client_(user->client.get()),
        versions_(versions),
        rng_(seed * 1000003 + static_cast<uint64_t>(user->index)),
        seen_(files.size(), 0),
        create_sizes_(CreateSizes()),
        live_(StartingPrivateFiles()),
        next_serial_(kPrivateStart) {
    // MakeFiles lists the files in size order.
    std::vector<const SharedFile*> by_owner[kUsers];
    for (const SharedFile& f : files) {
      by_owner[f.owner - kFirstUser].push_back(&f);
    }
    for (int u = 0; u < kUsers; ++u) decks_.emplace_back(by_owner[u]);
  }

  /// Runs transactions until `deadline`; `start` is the window's start,
  /// shared by all users.
  void Run(SteadyClock::time_point start, SteadyClock::time_point deadline) {
    start_ = start;
    slice_ns_ = Nanos(deadline - start) / kSlices + 1;
    Seat* seat = user_->seat;
    const CostSnapshot clock0 = seat->clock.snapshot();
    const auto link0 = user_->channel->counters();
    const auto crypto0 = seat->engine->op_counts();
    const uint64_t trips0 = client_->rpc_round_trips();
    const uint64_t wire0 = user_->channel->wire_ns();
    while (SteadyClock::now() < deadline) Transaction();
    t_.clock = seat->clock.snapshot() - clock0;
    const auto& link = user_->channel->counters();
    t_.link.round_trips = link.round_trips - link0.round_trips;
    t_.link.bytes_up = link.bytes_up - link0.bytes_up;
    t_.link.bytes_down = link.bytes_down - link0.bytes_down;
    const auto& c = seat->engine->op_counts();
    t_.crypto.sign = c.sign - crypto0.sign;
    t_.crypto.verify = c.verify - crypto0.verify;
    t_.crypto.sym_encrypt = c.sym_encrypt - crypto0.sym_encrypt;
    t_.crypto.sym_decrypt = c.sym_decrypt - crypto0.sym_decrypt;
    t_.round_trips = client_->rpc_round_trips() - trips0;
    t_.wire_ns = user_->channel->wire_ns() - wire0;
  }

  const Tally& tally() const { return t_; }

  /// Before the window: reads each shared file once, as the window's reads
  /// do, and checks it. A client's first read of another user's file costs
  /// one more RSA decryption than its later reads, and a first append to
  /// its own file fetches what later appends find cached; without this
  /// pass the share of first touches in the window, and with it the
  /// figures, would depend on how many operations the host managed.
  bool Warm(std::string* error) {
    for (const SharedFile& f : files_) {
      if (!client_->EvictPath(f.path).ok()) return Fail(error, f.path, "evict");
      auto content = client_->Read(f.path);
      if (!content.ok()) return Fail(error, f.path, "read");
      if (f.VersionOf(*content, f.first_version) != f.first_version) {
        return Fail(error, f.path, "content");
      }
      seen_[f.id] = f.first_version;
    }
    return true;
  }

  /// After the window, with every writer done: each shared file owned by
  /// the next user reads back at exactly its last version, and the home
  /// directory holds exactly the files this user created and did not
  /// delete, each with its contents.
  bool Verify(std::string* error) {
    const fs::UserId next_owner = Uid((user_->index + 1) % kUsers);
    for (const SharedFile& f : files_) {
      if (f.owner != next_owner) continue;
      if (!client_->EvictPath(f.path).ok()) return Fail(error, f.path, "evict");
      auto content = client_->Read(f.path);
      if (!content.ok()) return Fail(error, f.path, "read");
      const uint32_t want = (*versions_)[f.id].load();
      if (f.VersionOf(*content, want) != want) {
        return Fail(error, f.path, "content");
      }
    }
    const std::string home = HomeDir(user_->index);
    auto names = client_->Readdir(home);
    if (!names.ok()) return Fail(error, home, "list");
    std::vector<std::string> want;
    for (const PrivateFile& p : live_) want.push_back(PrivateName(p.serial));
    std::sort(want.begin(), want.end());
    std::sort(names->begin(), names->end());
    if (*names != want) return Fail(error, home, "listing");
    for (const PrivateFile& p : live_) {
      const std::string path = home + "/" + PrivateName(p.serial);
      auto content = client_->Read(path);
      if (!content.ok() || *content != PrivateContent(user_->index, p)) {
        return Fail(error, path, "content");
      }
    }
    return true;
  }

 private:
  static bool Fail(std::string* error, const std::string& path,
                   const char* what) {
    *error = std::string("check: ") + what + " " + path;
    return false;
  }

  /// One PostMark transaction: a data operation, then a file-set one.
  void Transaction() {
    if (rng_.NextBool()) {
      // The owner whose file is read takes turns: what a read costs
      // depends on the reader's and the owner's places in the tree, so a
      // random mix of owners would make the mean cost a draw.
      const int owner = static_cast<int>(reads_++ % kUsers);
      RunOne(owner == user_->index ? kReadOwn : kRead,
             decks_[static_cast<size_t>(owner)].Deal(rng_));
    } else {
      RunOne(kAppend, decks_[static_cast<size_t>(user_->index)].Deal(rng_));
    }
    const bool create = rng_.NextBool();
    RunOne((create && live_.size() < kPrivateCeiling) ||
                   live_.size() <= kPrivateFloor
               ? kCreate
               : kDelete,
           nullptr);
  }

  /// Runs and checks one operation; `f` is the shared file of a read or
  /// append.
  void RunOne(Op op, const SharedFile* f) {
    const std::string home = HomeDir(user_->index);
    // Inputs are prepared before the clocks start.
    Bytes content;
    std::string path;
    uint32_t published = 0;
    PrivateFile priv{};
    size_t victim = 0;
    switch (op) {
      case kRead:
      case kReadOwn:
        path = f->path;
        published = (*versions_)[f->id].load();
        break;
      case kAppend:
        path = f->path;
        published = (*versions_)[f->id].load();
        content = f->Change(published + 1);
        break;
      case kCreate:
        priv = PrivateFile{next_serial_++, create_sizes_.Deal(rng_)};
        path = home + "/" + PrivateName(priv.serial);
        content = PrivateContent(user_->index, priv);
        break;
      case kDelete:
        victim = rng_.NextBelow(live_.size());
        path = home + "/" + PrivateName(live_[victim].serial);
        break;
      case kNumOps:
        break;
    }

    Seat* seat = user_->seat;
    const uint64_t model0 = user_->channel->model_ns();
    const uint64_t wan0 = seat->clock.now_ns();
    uint64_t backoff_ns = 0;
    const auto start = SteadyClock::now();
    Status s = Status::OK();
    Result<Bytes> read = Bytes();
    int64_t version = -1;
    switch (op) {
      case kRead:
        // The client does not hear of other users' writes, so the reader
        // re-opens the file. A read racing the owner's append can fetch
        // blocks of two versions (Corruption), or land between the
        // rewrite's delete and put of the blocks (NotFound, or a short
        // file when block 0 is the one missing). The reader then tries
        // again after a pause that doubles, as an application would. The
        // pauses are the benchmark's, not the program's, and are taken
        // out of the operation's time.
        for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
          s = client_->EvictPath(path);
          if (s.ok()) read = client_->Read(path);
          const Status& got = s.ok() ? read.status() : s;
          version = got.ok() ? f->VersionOf(*read, std::max(published,
                                                            seen_[f->id]))
                             : -1;
          const bool torn = got.IsCorruption() || got.IsNotFound() ||
                            (got.ok() && version < 0);
          if (!torn || attempt + 1 == kReadAttempts) break;
          t_.reopens += 1;
          const auto pause = SteadyClock::now();
          std::this_thread::sleep_for(
              std::chrono::microseconds(100 << attempt));
          backoff_ns += Nanos(SteadyClock::now() - pause);
        }
        break;
      case kReadOwn:
        read = client_->Read(path);
        break;
      case kAppend:
        if ((published + 1) % kAppendCycle == 0) {
          s = client_->WriteFile(path, content);
        } else {
          s = client_->Append(path, content);
          if (s.ok()) s = client_->Close(path);
        }
        break;
      case kCreate: {
        core::CreateOptions fopts;
        fopts.mode = fs::Mode::FromOctal(0600);
        s = client_->Create(path, fopts);
        if (s.ok()) s = client_->WriteFile(path, content);
        break;
      }
      case kDelete:
        s = client_->Unlink(path);
        break;
      case kNumOps:
        break;
    }
    const auto end = SteadyClock::now();
    const uint64_t wall_ns = Nanos(end - start) - backoff_ns -
                             (user_->channel->model_ns() - model0);
    const uint64_t wan_ns = seat->clock.now_ns() - wan0;

    // Check the outcome (outside the timed region).
    t_.attempted += 1;
    std::string error;
    if (!s.ok()) {
      error = s.ToString();
    } else if (!read.ok()) {
      error = read.status().ToString();
    } else if (op == kRead || op == kReadOwn) {
      if (op == kReadOwn) version = f->VersionOf(*read, published);
      if (version < 0 || (op == kReadOwn && version != published)) {
        error = "wrong content from " + path;
      } else {
        seen_[f->id] = static_cast<uint32_t>(version);
        t_.payload_bytes += read->size();
      }
    } else if (op == kAppend) {
      (*versions_)[f->id].store(published + 1);
      t_.payload_bytes += content.size();
    } else if (op == kCreate) {
      live_.push_back(priv);
      t_.payload_bytes += content.size();
    } else if (op == kDelete) {
      live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    if (!error.empty()) {
      t_.failed += 1;
      if (t_.first_error.empty()) {
        t_.first_error = std::string(kOpNames[op]) + ": " + error;
      }
      return;
    }
    t_.ops[op] += 1;
    t_.op_wall_ns += wall_ns;
    const uint64_t slice = std::min<uint64_t>(
        kSlices - 1, Nanos(start - start_) / slice_ns_);
    t_.wall_ms[op][slice].push_back(static_cast<double>(wall_ns) / 1e6);
    t_.wan_ms[op].push_back(static_cast<double>(wan_ns) / 1e6);
  }

  const std::vector<SharedFile>& files_;
  User* user_;
  core::SharoesClient* client_;
  VersionBoard* versions_;
  Rng rng_;
  std::vector<uint32_t> seen_;  // Highest version read, per file.
  // Shared files, per owner. A user's own files come from one deck
  // whether read or appended, so within a pass no append finds its file
  // cached by an earlier read, however the seed mixed the two.
  std::vector<Deck<const SharedFile*>> decks_;
  Deck<size_t> create_sizes_;
  uint64_t reads_ = 0;
  std::vector<PrivateFile> live_;
  uint32_t next_serial_;
  Tally t_;
  SteadyClock::time_point start_;
  uint64_t slice_ns_ = 1;
};

// --- Reporting ------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// The median over slices of each slice's q-quantile (see kSlices).
double SlicedQuantile(const std::vector<double> (&slices)[kSlices], double q) {
  std::vector<double> per_slice;
  for (const auto& s : slices) {
    if (!s.empty()) per_slice.push_back(Quantile(s, q));
  }
  return Quantile(per_slice, 0.5);
}

std::vector<double> Pooled(const std::vector<double> (&slices)[kSlices]) {
  std::vector<double> all;
  for (const auto& s : slices) all.insert(all.end(), s.begin(), s.end());
  return all;
}

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Server-side totals from the process registry (every in-process daemon
/// records into it), for deltas across the measured window.
struct ServerView {
  uint64_t requests = 0;
  uint64_t service_us = 0;
  uint64_t fsyncs = 0;
  uint64_t fanout_count = 0;
  uint64_t fanout_sum = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  static ServerView Now() {
    ServerView v;
    auto snap = obs::MetricsRegistry::Global().Snapshot();
    for (const auto& [name, h] : snap.histograms) {
      if (name.rfind("ssp.service_us.", 0) == 0) {
        v.requests += h.count;
        v.service_us += h.sum;
      } else if (name == "client.rpc.shard_fanout") {
        v.fanout_count = h.count;
        v.fanout_sum = h.sum;
      }
    }
    auto counter = [&](const char* name) {
      auto it = snap.counters.find(name);
      return it == snap.counters.end() ? 0 : it->second;
    };
    v.fsyncs = counter("ssp.wal.fsyncs");
    v.cache_hits = counter("client.cache.hits");
    v.cache_misses = counter("client.cache.misses");
    return v;
  }
  ServerView operator-(const ServerView& o) const {
    return ServerView{requests - o.requests,
                      service_us - o.service_us,
                      fsyncs - o.fsyncs,
                      fanout_count - o.fanout_count,
                      fanout_sum - o.fanout_sum,
                      cache_hits - o.cache_hits,
                      cache_misses - o.cache_misses};
  }
};

class JsonMetrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name, value, unit);
    body_ += buf;
    std::fprintf(stderr, "  %-22s %14.6f %s\n", name, value, unit);
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".";
};

int Run(const Options& opt) {
  const Workload& w = *opt.workload;
  const std::vector<SharedFile> files = MakeFiles();
  const core::LocalNode tree = MakeTree(files);

  Enterprise ent;
  Status s = MakeEnterprise(opt.trace, &ent);
  if (!s.ok()) {
    std::fprintf(stderr, "sharebench: keys: %s\n", s.ToString().c_str());
    return 1;
  }

  // Set-up, several times; the last deployment serves the measured run.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    dep = std::make_unique<Deployment>(&ent);
    const auto t0 = SteadyClock::now();
    s = dep->Start(w, tree, opt.scratch + "/setup" + std::to_string(i));
    setup_s.push_back(std::chrono::duration<double>(SteadyClock::now() - t0)
                          .count());
    std::fprintf(stderr, "sharebench: set-up %d took %.3f s\n", i,
                 setup_s.back());
    if (!s.ok()) {
      std::fprintf(stderr, "sharebench: set-up failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }

  VersionBoard versions(files.size());
  for (const SharedFile& f : files) versions[f.id].store(f.first_version);
  std::vector<std::unique_ptr<UserLoop>> loops;
  for (int u = 0; u < kUsers; ++u) {
    loops.push_back(std::make_unique<UserLoop>(
        files, dep->users()[static_cast<size_t>(u)].get(), &versions,
        opt.seed));
  }
  // Runs one check per user, in parallel (each user has its own client),
  // and returns the first error.
  auto check = [&](bool (UserLoop::*step)(std::string*)) {
    std::vector<std::string> errors(kUsers);
    std::vector<std::thread> checkers;
    for (int u = 0; u < kUsers; ++u) {
      checkers.emplace_back([&, u] {
        (loops[static_cast<size_t>(u)].get()->*step)(
            &errors[static_cast<size_t>(u)]);
      });
    }
    for (auto& th : checkers) th.join();
    for (const std::string& error : errors) {
      if (!error.empty()) return error;
    }
    return std::string();
  };
  const auto warm0 = SteadyClock::now();
  dep->SetDirect(true);
  const std::string warm_error = check(&UserLoop::Warm);
  dep->SetDirect(false);
  std::fprintf(stderr, "sharebench: warm pass took %.3f s\n",
               std::chrono::duration<double>(SteadyClock::now() - warm0)
                   .count());
  if (!warm_error.empty()) {
    std::fprintf(stderr, "sharebench: warm pass: %s\n", warm_error.c_str());
    return 1;
  }

  const ServerView server0 = ServerView::Now();
  const auto start = SteadyClock::now();
  const auto deadline = start + std::chrono::microseconds(
                                    static_cast<int64_t>(opt.seconds * 1e6));
  std::vector<std::thread> threads;
  for (auto& loop : loops) {
    threads.emplace_back([&, l = loop.get()] { l->Run(start, deadline); });
  }
  for (auto& th : threads) th.join();
  const double elapsed_s =
      std::chrono::duration<double>(SteadyClock::now() - start).count();
  const ServerView server = ServerView::Now() - server0;

  // Merge, then check the final state.
  Tally all;
  for (auto& loop : loops) {
    const Tally& t = loop->tally();
    all.attempted += t.attempted;
    all.failed += t.failed;
    all.reopens += t.reopens;
    for (int op = 0; op < kNumOps; ++op) {
      all.ops[op] += t.ops[op];
      for (int sl = 0; sl < kSlices; ++sl) {
        all.wall_ms[op][sl].insert(all.wall_ms[op][sl].end(),
                                   t.wall_ms[op][sl].begin(),
                                   t.wall_ms[op][sl].end());
      }
      all.wan_ms[op].insert(all.wan_ms[op].end(), t.wan_ms[op].begin(),
                            t.wan_ms[op].end());
    }
    all.op_wall_ns += t.op_wall_ns;
    all.wire_ns += t.wire_ns;
    all.payload_bytes += t.payload_bytes;
    all.clock += t.clock;
    all.link.round_trips += t.link.round_trips;
    all.link.bytes_up += t.link.bytes_up;
    all.link.bytes_down += t.link.bytes_down;
    all.crypto.sign += t.crypto.sign;
    all.crypto.verify += t.crypto.verify;
    all.crypto.sym_encrypt += t.crypto.sym_encrypt;
    all.crypto.sym_decrypt += t.crypto.sym_decrypt;
    all.round_trips += t.round_trips;
    if (all.first_error.empty()) all.first_error = t.first_error;
  }
  bool correct = all.failed == 0;
  for (int op = 0; op < kNumOps; ++op) correct = correct && all.ops[op] > 0;
  const std::string final_error = check(&UserLoop::Verify);
  if (!final_error.empty()) {
    correct = false;
    if (all.first_error.empty()) all.first_error = final_error;
  }
  if (!all.first_error.empty()) {
    std::fprintf(stderr, "sharebench: %s\n", all.first_error.c_str());
  }

  uint64_t ok_ops = 0;
  for (int op = 0; op < kNumOps; ++op) ok_ops += all.ops[op];
  const double n = static_cast<double>(ok_ops);
  std::fprintf(stderr,
               "sharebench: %s seed %llu, %d users, %.2f s, %llu ops "
               "(%llu failed, %llu reads re-opened)\n",
               w.name, static_cast<unsigned long long>(opt.seed), kUsers,
               elapsed_s, static_cast<unsigned long long>(all.attempted),
               static_cast<unsigned long long>(all.failed),
               static_cast<unsigned long long>(all.reopens));
  for (int op = 0; op < kNumOps; ++op) {
    if (all.ops[op] == 0) continue;
    std::fprintf(stderr, "  %-12s %6llu ops  wall p50 %8.3f p90 %8.3f ms\n",
                 kOpNames[op], static_cast<unsigned long long>(all.ops[op]),
                 Quantile(Pooled(all.wall_ms[op]), 0.5),
                 Quantile(Pooled(all.wall_ms[op]), 0.9));
  }

  JsonMetrics m;
  if (!opt.trace) {
    std::sort(setup_s.begin(), setup_s.end());
    // Means over the window. What an operation costs on this clock is
    // set by the bytes and round trips it exchanges and the crypto it
    // does, and the window holds these steady: file sizes cycle, home
    // directories stay in a band, and the warm pass has made every read a
    // repeat read.
    m.Add("wan_read_ms", Mean(all.wan_ms[kRead]), "ms");
    m.Add("wan_append_ms", Mean(all.wan_ms[kAppend]), "ms");
    m.Add("wan_create_ms", Mean(all.wan_ms[kCreate]), "ms");
    m.Add("wan_delete_ms", Mean(all.wan_ms[kDelete]), "ms");
    // Operations started per second, in each slice.
    std::vector<double> slice_rates;
    for (int sl = 0; sl < kSlices; ++sl) {
      size_t started = 0;
      for (int op = 0; op < kNumOps; ++op) started += all.wall_ms[op][sl].size();
      slice_rates.push_back(static_cast<double>(started) * kSlices /
                            elapsed_s);
    }
    m.Add("ops_per_s", Quantile(slice_rates, 0.5), "1/s");
    m.Add("setup_s", setup_s[setup_s.size() / 2], "s");
  } else {
    const double wall_ms = static_cast<double>(all.op_wall_ns) / 1e6;
    const double wire_ms = static_cast<double>(all.wire_ns) / 1e6;
    const double crypto_ms = static_cast<double>(all.clock.crypto_ns()) / 1e6;
    // Wall-clock latencies. They follow the host's speed, which on a
    // shared host drifts by up to 2x over minutes, so they are reported
    // here, unbounded, and not end to end.
    m.Add("read_p50_ms", SlicedQuantile(all.wall_ms[kRead], 0.5), "ms");
    m.Add("read_p90_ms", SlicedQuantile(all.wall_ms[kRead], 0.9), "ms");
    m.Add("append_p50_ms", SlicedQuantile(all.wall_ms[kAppend], 0.5), "ms");
    m.Add("create_p50_ms", SlicedQuantile(all.wall_ms[kCreate], 0.5), "ms");
    m.Add("delete_p50_ms", SlicedQuantile(all.wall_ms[kDelete], 0.5), "ms");
    m.Add("rpcs_per_op", Ratio(static_cast<double>(all.round_trips), n),
          "count");
    m.Add("bytes_up_per_op", Ratio(static_cast<double>(all.link.bytes_up), n),
          "B");
    m.Add("bytes_down_per_op",
          Ratio(static_cast<double>(all.link.bytes_down), n), "B");
    m.Add("wan_net_ms_per_op",
          Ratio(static_cast<double>(all.clock.network_ns()) / 1e6, n), "ms");
    m.Add("op_ms", Ratio(wall_ms, n), "ms");
    m.Add("wire_ms_per_op", Ratio(wire_ms, n), "ms");
    m.Add("crypto_ms_per_op", Ratio(crypto_ms, n), "ms");
    m.Add("client_ms_per_op", Ratio(wall_ms - wire_ms - crypto_ms, n), "ms");
    m.Add("server_reqs_per_op", Ratio(static_cast<double>(server.requests), n),
          "count");
    m.Add("server_us_per_req",
          Ratio(static_cast<double>(server.service_us),
                static_cast<double>(server.requests)),
          "us");
    m.Add("nodes_per_rpc",
          server.fanout_count > 0
              ? Ratio(static_cast<double>(server.fanout_sum),
                      static_cast<double>(server.fanout_count))
              : 1.0,
          "count");
    m.Add("fsyncs_per_op", Ratio(static_cast<double>(server.fsyncs), n),
          "count");
    m.Add("signs_per_op", Ratio(static_cast<double>(all.crypto.sign), n),
          "count");
    m.Add("verifies_per_op", Ratio(static_cast<double>(all.crypto.verify), n),
          "count");
    m.Add("sym_ops_per_op",
          Ratio(static_cast<double>(all.crypto.sym_encrypt +
                                    all.crypto.sym_decrypt),
                n),
          "count");
    m.Add("cache_hit_ratio",
          Ratio(static_cast<double>(server.cache_hits),
                static_cast<double>(server.cache_hits + server.cache_misses)),
          "ratio");
    m.Add("reopens_per_op", Ratio(static_cast<double>(all.reopens), n),
          "count");
    m.Add("payload_mib_per_s",
          Ratio(static_cast<double>(all.payload_bytes) / (1 << 20), elapsed_s),
          "MiB/s");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(all.failed), m.body().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace sharoes::sharebench

int main(int argc, char** argv) {
  using namespace sharoes::sharebench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (w.name == std::string(value)) opt.workload = &w;
      }
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt.trace = std::atoi(value) != 0;
    } else if (flag == "--scratch") {
      opt.scratch = value;
    } else {
      std::fprintf(stderr, "sharebench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.workload == nullptr || opt.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: sharebench --workload postmark|postmark_cluster "
                 "--seed N --seconds S --trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  return Run(opt);
}
