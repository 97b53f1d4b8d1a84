// sharoes_cli: a command-line SHAROES client for a running sharoes_sspd.
//
// Enterprise state (the identity directory plus each user's private key)
// lives in a state directory on the trusted side; the SSP never sees any
// of it.
//
//   # 1. start the SSP:              ./sharoes_sspd 7070 &
//   # 2. provision a demo world:     ./sharoes_cli provision --state /tmp/sh
//   # 3. use it:
//   ./sharoes_cli --state /tmp/sh --user alice ls /
//   ./sharoes_cli --state /tmp/sh --user alice cat /docs/welcome.txt
//   ./sharoes_cli --state /tmp/sh --user alice put /docs/new.txt "hello"
//   ./sharoes_cli --state /tmp/sh --user bob   cat /docs/new.txt
//   ./sharoes_cli --state /tmp/sh --user alice chmod /docs/new.txt 600
//   ./sharoes_cli --state /tmp/sh --user bob   cat /docs/new.txt   # denied
//
// `sharoes_cli stats` needs no state or user: it sends the admin
// kGetStats RPC and prints the daemon's metrics snapshot (one JSON
// document: counters, gauges, latency histograms with percentiles).
// `--prefix ssp.wal` restricts the snapshot to metrics whose name
// starts with the prefix (cheap periodic scraping). With --cluster the
// snapshot covers the whole fleet: the sharded channel fans kGetStats
// to every daemon and merges (counters/gauges sum, histograms merge
// pointwise, so percentiles are over the union of samples; the
// cluster.nodes_reporting gauge says how many daemons answered).
// `--node N` pins the RPC to the daemon with cluster node id N instead.
//
// `sharoes_cli slow` (also stateless) sends kGetTraces and prints the
// daemon's captured slow-request span timelines: every request that
// exceeded --slow-request-us recently, plus the slowest ever, each
// broken down into phases (lock wait, WAL append, fsync wait, ...).
// Histogram p99_trace/max_trace fields in `stats` name timelines here.
// With --cluster it prints one JSON object keyed by node id ("node_0",
// ...), each daemon's document embedded verbatim; --node N pins it.
//
// Flags: --host (default 127.0.0.1; names resolve via DNS), --port
//        (7070), --state (required), --user (name registered at
//        provision time).
//        --cluster FILE  talk to a replicated daemon fleet instead of
//                        one --host/--port daemon: FILE is the
//                        placement config (ssp/placement.h text format)
//                        that every sharoes_sspd was started with; ops
//                        are sharded by consistent hashing and written
//                        to / read from quorums (DESIGN.md §15).
// Transport fault tolerance (every SSP op is an idempotent put/get/
// delete, so blanket retry is safe — see core/retrying_connection.h).
// With --cluster the same flags set the quorum round budget instead
// (attempts = rounds; the cluster path has no other retry layer):
//        --retries N            attempts per op incl. the first (8;
//                               1 disables retry)
//        --retry-backoff-ms N   initial backoff, doubled per retry (10)
//        --retry-max-backoff-ms N  backoff cap (1000)
//        --connect-timeout-ms N    connect deadline (5000; 0 = forever)
//        --io-timeout-ms N         per-syscall send/recv deadline
//        --readahead-blocks N      data blocks fetched per read batch
//                                  (32; 0 = one get per round trip)
//        --write-batch N           mutating sub-ops staged per flush of
//                                  the write-behind batch (16; 0 = one
//                                  round trip per logical op, the
//                                  pre-batching wire behaviour)
//        --rpc-stats               print the op's round-trip count
//                                  (10000; 0 = forever)

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/client.h"
#include "core/migration.h"
#include "core/retrying_connection.h"
#include "core/sharded_channel.h"
#include "ssp/message.h"
#include "ssp/tcp_service.h"

using namespace sharoes;

namespace {

struct Args {
  std::string host = "127.0.0.1";
  uint16_t port = 7070;
  /// Cluster config file (ssp/placement.h): talk to a sharded,
  /// replicated daemon fleet instead of one --host/--port daemon.
  std::string cluster;
  std::string state;
  std::string user;
  core::RetryOptions retry;
  net::TcpTimeouts timeouts{/*connect_ms=*/5000, /*send_ms=*/10000,
                            /*recv_ms=*/10000};
  /// Data-read batching window; 0 disables batched reads entirely
  /// (one get per round trip, the pre-batching wire behaviour).
  size_t readahead_blocks = 32;
  /// Write-behind stage threshold; 0 disables write batching (every
  /// logical op pays its own round trips immediately).
  size_t write_batch = 16;
  /// Print the client's RPC round-trip count to stderr after the command.
  bool rpc_stats = false;
  /// Metric-name prefix filter for `stats` (empty = full registry).
  std::string stats_prefix;
  /// Cluster node id to pin `stats`/`slow` to (-1 = fan to all nodes
  /// and merge). Only meaningful with --cluster.
  int admin_node = -1;
  std::vector<std::string> command;
};

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "sharoes_cli: %s\n", msg.c_str());
  std::exit(1);
}

void CheckOk(const Status& s) {
  if (!s.ok()) Die(s.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) Die("missing value for " + a);
      return argv[i];
    };
    if (a == "--host") {
      args.host = next();
    } else if (a == "--cluster") {
      args.cluster = next();
    } else if (a == "--port") {
      args.port = static_cast<uint16_t>(std::atoi(next().c_str()));
    } else if (a == "--state") {
      args.state = next();
    } else if (a == "--user") {
      args.user = next();
    } else if (a == "--retries") {
      args.retry.max_attempts = std::atoi(next().c_str());
    } else if (a == "--retry-backoff-ms") {
      args.retry.initial_backoff_ms =
          static_cast<uint32_t>(std::atoi(next().c_str()));
    } else if (a == "--retry-max-backoff-ms") {
      args.retry.max_backoff_ms =
          static_cast<uint32_t>(std::atoi(next().c_str()));
    } else if (a == "--connect-timeout-ms") {
      args.timeouts.connect_ms =
          static_cast<uint32_t>(std::atoi(next().c_str()));
    } else if (a == "--io-timeout-ms") {
      uint32_t ms = static_cast<uint32_t>(std::atoi(next().c_str()));
      args.timeouts.send_ms = ms;
      args.timeouts.recv_ms = ms;
    } else if (a == "--readahead-blocks") {
      args.readahead_blocks =
          static_cast<size_t>(std::atoi(next().c_str()));
    } else if (a == "--write-batch") {
      args.write_batch = static_cast<size_t>(std::atoi(next().c_str()));
    } else if (a == "--rpc-stats") {
      args.rpc_stats = true;
    } else if (a == "--prefix") {
      args.stats_prefix = next();
    } else if (a == "--node") {
      args.admin_node = std::atoi(next().c_str());
    } else {
      args.command.push_back(a);
    }
  }
  if (args.command.empty()) Die("no command given");
  // `stats` and `slow` talk admin RPCs only — no enterprise state.
  if (args.state.empty() && args.command[0] != "stats" &&
      args.command[0] != "slow") {
    Die("--state <dir> is required");
  }
  return args;
}

Status WriteFileBytes(const std::string& path, const Bytes& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out.good() ? Status::OK() : Status::IoError("short write " + path);
}

Result<Bytes> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

// Demo enterprise: alice (uid 100) and bob (uid 101) in group "staff".
constexpr fs::UserId kAliceUid = 100;
constexpr fs::UserId kBobUid = 101;
constexpr fs::GroupId kStaffGid = 500;

/// Fault-tolerant channel to the daemon: reconnects and retries per the
/// retry flags, with stream deadlines from the timeout flags.
std::unique_ptr<core::RetryingConnection> MakeConnection(
    const std::string& host, uint16_t port, const net::TcpTimeouts& timeouts,
    const core::RetryOptions& retry) {
  auto factory = [host, port,
                  timeouts]() -> Result<std::unique_ptr<ssp::SspChannel>> {
    auto channel = ssp::TcpSspChannel::Connect(host, port, timeouts);
    if (!channel.ok()) return channel.status();
    return std::unique_ptr<ssp::SspChannel>(std::move(*channel));
  };
  return std::make_unique<core::RetryingConnection>(std::move(factory), retry);
}

/// The sharded quorum channel over the --cluster fleet; the retry flags
/// become its round budget.
std::unique_ptr<core::ShardedChannel> OpenCluster(const Args& args) {
  auto channel = core::ShardedChannel::Open(
      args.cluster,
      core::ShardedChannelOptions::FromRetry(args.retry, args.timeouts));
  if (!channel.ok()) Die("cluster config: " + channel.status().ToString());
  return std::move(*channel);
}

/// The channel every command talks through: with --cluster, a sharded
/// quorum channel over the configured daemon fleet; otherwise the
/// single-daemon retrying connection.
std::unique_ptr<ssp::SspChannel> MakeChannel(const Args& args) {
  if (args.cluster.empty()) {
    return MakeConnection(args.host, args.port, args.timeouts, args.retry);
  }
  return OpenCluster(args);
}

void Provision(const Args& args) {
  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  crypto::CryptoEngine engine(&clock, eng_opts);
  core::IdentityDirectory identity;
  core::Provisioner::Options popts;
  popts.user_key_bits = 1024;
  core::Provisioner prov(&identity, /*server=*/nullptr, &engine, popts);
  // Probe once without retry for a crisp diagnosis, then provision
  // through the fault-tolerant channel. (Cluster mode skips the probe:
  // quorum provisioning tolerates a minority of daemons being down.)
  if (args.cluster.empty()) {
    auto probe = ssp::TcpSspChannel::Connect(args.host, args.port,
                                             args.timeouts);
    if (!probe.ok()) {
      Die("cannot reach sharoes_sspd at " + args.host + ":" +
          std::to_string(args.port) + " (" + probe.status().ToString() +
          ") — start it first");
    }
  }
  auto channel = MakeChannel(args);
  prov.set_remote_channel(channel.get());

  auto alice = prov.CreateUser(kAliceUid, "alice");
  CheckOk(alice.status());
  auto bob = prov.CreateUser(kBobUid, "bob");
  CheckOk(bob.status());
  CheckOk(prov.CreateGroup(kStaffGid, "staff", {kAliceUid, kBobUid})
              .status());

  core::LocalNode root =
      core::LocalNode::Dir("", kAliceUid, kStaffGid, fs::Mode::FromOctal(0755));
  core::LocalNode docs = core::LocalNode::Dir(
      "docs", kAliceUid, kStaffGid, fs::Mode::FromOctal(0775));
  docs.children.push_back(core::LocalNode::File(
      "welcome.txt", kAliceUid, kStaffGid, fs::Mode::FromOctal(0644),
      ToBytes("welcome to sharoes over tcp\n")));
  root.children.push_back(std::move(docs));
  auto stats = prov.Migrate(root);
  CheckOk(stats.status());

  CheckOk(WriteFileBytes(args.state + "/identity.db", identity.Serialize()));
  CheckOk(WriteFileBytes(args.state + "/alice.key", alice->priv.Serialize()));
  CheckOk(WriteFileBytes(args.state + "/bob.key", bob->priv.Serialize()));
  std::printf(
      "provisioned: users alice/bob (group staff), %llu objects at the "
      "SSP;\nstate written to %s (identity.db, alice.key, bob.key)\n",
      static_cast<unsigned long long>(stats->files + stats->directories),
      args.state.c_str());
}

/// Issues one admin request: fan-merged over the cluster by default, or
/// pinned to --node N's daemon, or straight at the lone --host/--port
/// daemon. Prints the JSON payload.
int RunAdmin(const Args& args, const ssp::Request& req, const char* what) {
  Result<ssp::Response> resp = Status::Internal("unset");
  if (args.admin_node >= 0) {
    if (args.cluster.empty()) {
      Die("--node needs --cluster (a lone daemon has only itself)");
    }
    resp = OpenCluster(args)->CallOnNode(
        static_cast<uint32_t>(args.admin_node), req);
  } else {
    auto channel = MakeChannel(args);
    resp = channel->Call(req);
  }
  CheckOk(resp.status());
  if (!resp->ok()) Die(std::string("SSP rejected ") + what);
  std::printf("%.*s\n", static_cast<int>(resp->payload.size()),
              reinterpret_cast<const char*>(resp->payload.data()));
  return 0;
}

/// `sharoes_cli stats`: fetch and print the daemon's metrics snapshot
/// (optionally restricted to names starting with --prefix).
int Stats(const Args& args) {
  return RunAdmin(args, ssp::Request::GetStats(args.stats_prefix),
                  "kGetStats");
}

/// `sharoes_cli slow`: fetch and print captured slow-request timelines.
int Slow(const Args& args) {
  return RunAdmin(args, ssp::Request::GetTraces(), "kGetTraces");
}

fs::UserId UidOf(const core::IdentityDirectory& identity,
                 const std::string& name) {
  for (fs::UserId uid : identity.AllUsers()) {
    auto user = identity.GetUser(uid);
    if (user.ok() && user->name == name) return uid;
  }
  Die("unknown user '" + name + "'");
}

int RunCommand(const Args& args) {
  auto identity_bytes = ReadFileBytes(args.state + "/identity.db");
  CheckOk(identity_bytes.status());
  auto identity = core::IdentityDirectory::Deserialize(*identity_bytes);
  CheckOk(identity.status());
  if (args.user.empty()) Die("--user <name> is required");
  fs::UserId uid = UidOf(*identity, args.user);
  auto key_bytes = ReadFileBytes(args.state + "/" + args.user + ".key");
  CheckOk(key_bytes.status());
  auto priv = crypto::RsaPrivateKey::Deserialize(*key_bytes);
  CheckOk(priv.status());

  SimClock clock;
  crypto::CryptoEngineOptions eng_opts;
  crypto::CryptoEngine engine(&clock, eng_opts);
  core::ClientOptions copts;
  copts.default_group = kStaffGid;
  copts.transport_retry = args.retry;
  copts.transport_timeouts = args.timeouts;
  copts.readahead_blocks = args.readahead_blocks;
  copts.write_batch_ops = args.write_batch;
  // Cluster mode exercises the library path: the client builds and owns
  // its sharded channel from ClientOptions::cluster at Mount().
  copts.cluster = args.cluster;
  std::unique_ptr<ssp::SspChannel> channel;
  if (args.cluster.empty()) {
    channel = MakeConnection(args.host, args.port, copts.transport_timeouts,
                             copts.transport_retry);
  }
  core::SharoesClient client(uid, *priv, &*identity, channel.get(), &engine,
                             copts);
  CheckOk(client.Mount());

  const std::string& cmd = args.command[0];
  auto arg_at = [&](size_t i) -> const std::string& {
    if (args.command.size() <= i) Die("missing argument for " + cmd);
    return args.command[i];
  };
  if (cmd == "ls") {
    auto names = client.Readdir(arg_at(1));
    CheckOk(names.status());
    for (const std::string& n : *names) std::printf("%s\n", n.c_str());
  } else if (cmd == "cat") {
    auto content = client.Read(arg_at(1));
    CheckOk(content.status());
    fwrite(content->data(), 1, content->size(), stdout);
  } else if (cmd == "put") {
    const std::string& path = arg_at(1);
    if (!client.Exists(path)) {
      core::CreateOptions opts;
      opts.mode = fs::Mode::FromOctal(0644);
      CheckOk(client.Create(path, opts));
    }
    CheckOk(client.WriteFile(path, ToBytes(arg_at(2))));
    std::printf("wrote %zu bytes to %s\n", arg_at(2).size(), path.c_str());
  } else if (cmd == "stat") {
    auto attrs = client.Getattr(arg_at(1));
    CheckOk(attrs.status());
    std::printf("%s %u:%u inode=%llu %s\n", attrs->mode.ToString().c_str(),
                attrs->owner, attrs->group,
                static_cast<unsigned long long>(attrs->inode),
                fs::FileTypeName(attrs->type).c_str());
  } else if (cmd == "mkdir") {
    core::CreateOptions opts;
    opts.mode = fs::Mode::FromOctal(
        static_cast<uint16_t>(std::strtol(arg_at(2).c_str(), nullptr, 8)));
    CheckOk(client.Mkdir(arg_at(1), opts));
  } else if (cmd == "chmod") {
    fs::Mode mode(static_cast<uint16_t>(
        std::strtol(arg_at(2).c_str(), nullptr, 8)));
    CheckOk(client.Chmod(arg_at(1), mode));
  } else if (cmd == "rm") {
    CheckOk(client.Unlink(arg_at(1)));
  } else if (cmd == "rmdir") {
    CheckOk(client.Rmdir(arg_at(1)));
  } else {
    Die("unknown command '" + cmd +
        "' (try: ls cat put stat mkdir chmod rm rmdir stats slow)");
  }
  // Drain the write-behind stage before exit: a one-shot CLI process must
  // not drop staged mutations (mkdir/chmod/rm have no Close of their own).
  CheckOk(client.Fsync());
  if (args.rpc_stats) {
    std::fprintf(stderr, "rpc round trips: %llu\n",
                 static_cast<unsigned long long>(client.rpc_round_trips()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  if (args.command[0] == "provision") {
    Provision(args);
    return 0;
  }
  if (args.command[0] == "stats") return Stats(args);
  if (args.command[0] == "slow") return Slow(args);
  return RunCommand(args);
}
