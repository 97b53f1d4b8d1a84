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
// Transport fault tolerance (the daemon makes every SSP op safe to
// replay, so every op is retried alike — see core/retrying_connection.h).
// One retry budget for one daemon or a cluster (an attempt is then a
// quorum round; the cluster path has no other retry layer); a spent
// budget fails the op as unavailable on either:
//        --retries N            attempts per op incl. the first (8;
//                               1 disables retry)
//        --retry-backoff-ms N   initial backoff, doubled per retry (10)
//        --retry-max-backoff-ms N  backoff cap (1000)
//        --connect-timeout-ms N    connect deadline (5000; 0 = forever)
//        --io-timeout-ms N         per-syscall send/recv deadline
//                                  (10000; 0 = forever)
//        --readahead-blocks N      data blocks fetched per read batch
//                                  (32; 0 = one get per round trip)
//        --write-batch N           mutating sub-ops staged per flush of
//                                  the write-behind batch (library
//                                  default; 0 = one round trip per
//                                  logical op, the pre-batching wire
//                                  behaviour)
//        --rpc-stats               print the op's round-trip count
//
// An unknown flag, a missing value, a bad number or a mkdir/chmod mode
// outside octal 0..7777 exits 1 (tools/flags.h).

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
#include "obs/metrics.h"
#include "ssp/message.h"
#include "ssp/tcp_service.h"
#include "flags.h"

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
  /// The retry budget (RetryOptions' defaults) and socket deadlines, for
  /// one daemon or a cluster alike.
  core::ShardedChannelOptions transport{
      {}, {/*connect_ms=*/5000, /*send_ms=*/10000, /*recv_ms=*/10000}};
  /// Data-read batching window; 0 disables batched reads entirely
  /// (one get per round trip, the pre-batching wire behaviour).
  size_t readahead_blocks = 32;
  /// Write-behind stage threshold; 0 disables write batching (every
  /// logical op pays its own round trips immediately).
  size_t write_batch = core::ClientOptions{}.write_batch_ops;
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
  core::RetryOptions& retry = args.transport;
  net::TcpTimeouts& timeouts = args.transport.timeouts;
  const std::map<std::string, tools::Flag> flags = {
      {"--host", tools::StringFlag(&args.host)},
      {"--cluster", tools::StringFlag(&args.cluster)},
      {"--port", tools::UintFlag(&args.port)},
      {"--state", tools::StringFlag(&args.state)},
      {"--user", tools::StringFlag(&args.user)},
      {"--retries", tools::UintFlag(&retry.max_attempts)},
      {"--retry-backoff-ms", tools::UintFlag(&retry.initial_backoff_ms)},
      {"--retry-max-backoff-ms", tools::UintFlag(&retry.max_backoff_ms)},
      {"--connect-timeout-ms", tools::UintFlag(&timeouts.connect_ms)},
      {"--io-timeout-ms",
       [&](const char* text) {
         if (!tools::UintFlag(&timeouts.send_ms)(text)) return false;
         timeouts.recv_ms = timeouts.send_ms;
         return true;
       }},
      {"--readahead-blocks", tools::UintFlag(&args.readahead_blocks)},
      {"--write-batch", tools::UintFlag(&args.write_batch)},
      {"--rpc-stats", tools::SwitchFlag(&args.rpc_stats)},
      {"--prefix", tools::StringFlag(&args.stats_prefix)},
      {"--node", tools::UintFlag(&args.admin_node)},
  };
  const std::string error =
      tools::ParseFlags(argc, argv, flags, [&](const char* word) {
        args.command.push_back(word);
        return std::string();
      });
  if (!error.empty()) Die(error);
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

/// The sharded quorum channel over the --cluster fleet; the retry flags
/// are its round budget.
std::unique_ptr<core::ShardedChannel> OpenCluster(const Args& args) {
  auto channel = core::ShardedChannel::Open(args.cluster, args.transport);
  if (!channel.ok()) Die("cluster config: " + channel.status().ToString());
  return std::move(*channel);
}

/// The channel every command talks through: with --cluster, a sharded
/// quorum channel over the configured daemon fleet; otherwise a
/// connection to the one daemon that reconnects and retries. Either way
/// the retry flags are its budget and the timeout flags its deadlines.
std::unique_ptr<ssp::SspChannel> MakeChannel(const Args& args) {
  if (!args.cluster.empty()) return OpenCluster(args);
  return std::make_unique<core::RetryingConnection>(
      core::RetryingConnection::Dialer(args.host, args.port,
                                       args.transport.timeouts),
      args.transport);
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
                                             args.transport.timeouts);
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
/// daemon. Prints the payload as JSON: kGetStats answers a binary
/// registry snapshot (a lone daemon's or the cluster's merge alike),
/// rendered here; kGetTraces answers JSON already.
int RunAdmin(const Args& args, const ssp::Request& req) {
  Result<ssp::Response> resp = Status::Internal("unset");
  if (args.admin_node >= 0) {
    if (args.cluster.empty()) {
      Die("--node needs --cluster (a lone daemon has only itself)");
    }
    resp = OpenCluster(args)->CallOnNode(
        static_cast<uint32_t>(args.admin_node), req);
  } else {
    resp = MakeChannel(args)->Call(req);
  }
  CheckOk(resp.status());
  if (!resp->ok()) Die(std::string("SSP rejected ") + ssp::OpCodeName(req.op));
  std::string json(resp->payload.begin(), resp->payload.end());
  if (req.op == ssp::OpCode::kGetStats) {
    auto snap = obs::RegistrySnapshot::DeserializeBinary(resp->payload);
    CheckOk(snap.status());
    json = snap->ToJson();
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

/// A mode argument of mkdir/chmod: octal, 0 to 7777.
fs::Mode ModeArg(const std::string& text) {
  uint64_t bits = 0;
  if (!tools::ParseUint(text.c_str(), 07777, &bits, 8)) {
    Die("bad mode '" + text + "' (octal, 0..7777)");
  }
  return fs::Mode::FromOctal(static_cast<uint16_t>(bits));
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
  copts.readahead_blocks = args.readahead_blocks;
  copts.write_batch_ops = args.write_batch;
  auto channel = MakeChannel(args);
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
    opts.mode = ModeArg(arg_at(2));
    CheckOk(client.Mkdir(arg_at(1), opts));
  } else if (cmd == "chmod") {
    CheckOk(client.Chmod(arg_at(1), ModeArg(arg_at(2))));
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
  if (args.command[0] == "stats") {
    return RunAdmin(args, ssp::Request::GetStats(args.stats_prefix));
  }
  if (args.command[0] == "slow") {
    return RunAdmin(args, ssp::Request::GetTraces());
  }
  return RunCommand(args);
}
