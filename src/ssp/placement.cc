#include "ssp/placement.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace sharoes::ssp {

namespace {
// Separates point hashing from key hashing so a key can never land
// exactly on its own vnode by construction.
constexpr uint64_t kKeySalt = 0xA5A5A5A5A5A5A5A5ull;
}  // namespace

uint64_t PlacementHash(uint64_t seed, uint64_t value) {
  // splitmix64 finalizer over seed ^ value. Fixed constants, no
  // platform-dependent state: the same inputs hash identically in every
  // process, which is what lets N daemons and M clients agree on
  // ownership without talking to each other.
  uint64_t x = seed ^ value;
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

Status ClusterConfig::Validate() const {
  if (nodes.empty()) return Status::InvalidArgument("cluster has no nodes");
  if (replication < 1 || replication > nodes.size()) {
    return Status::InvalidArgument("replication must be in [1, nodes]");
  }
  if (write_quorum < 1 || write_quorum > replication) {
    return Status::InvalidArgument("write_quorum must be in [1, replication]");
  }
  if (read_quorum < 1 || read_quorum > replication) {
    return Status::InvalidArgument("read_quorum must be in [1, replication]");
  }
  if (replication > 1 && read_quorum + write_quorum <= replication) {
    // The intersection property: any R replies overlap any W acks in at
    // least one replica, so a quorum read always sees the latest
    // quorum-acked write. Without it the quorum machinery is theater.
    return Status::InvalidArgument("need read_quorum + write_quorum > "
                                   "replication for quorum intersection");
  }
  if (virtual_nodes < 1 || virtual_nodes > 4096) {
    return Status::InvalidArgument("virtual_nodes must be in [1, 4096]");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].host.empty()) {
      return Status::InvalidArgument("node has empty host");
    }
    for (size_t j = i + 1; j < nodes.size(); ++j) {
      if (nodes[i].id == nodes[j].id) {
        return Status::InvalidArgument("duplicate node id " +
                                       std::to_string(nodes[i].id));
      }
    }
  }
  return Status::OK();
}

const ClusterNode* ClusterConfig::FindNode(uint32_t id) const {
  for (const ClusterNode& n : nodes) {
    if (n.id == id) return &n;
  }
  return nullptr;
}

std::string ClusterConfig::Serialize() const {
  std::ostringstream out;
  out << "cluster v1\n";
  out << "replication " << replication << "\n";
  out << "write_quorum " << write_quorum << "\n";
  out << "read_quorum " << read_quorum << "\n";
  out << "virtual_nodes " << virtual_nodes << "\n";
  out << "ring_seed " << ring_seed << "\n";
  for (const ClusterNode& n : nodes) {
    out << "node " << n.id << " " << n.host << " " << n.port << "\n";
  }
  return out.str();
}

Result<ClusterConfig> ClusterConfig::Parse(const std::string& text) {
  ClusterConfig config;
  config.nodes.clear();
  std::istringstream in(text);
  std::string line;
  bool saw_header = false;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key) || key[0] == '#') continue;
    auto bad = [&](const std::string& why) {
      return Status::InvalidArgument("cluster config line " +
                                     std::to_string(lineno) + ": " + why);
    };
    if (!saw_header) {
      std::string version;
      if (key != "cluster" || !(fields >> version) || version != "v1") {
        return bad("expected `cluster v1` header");
      }
      saw_header = true;
    } else if (key == "replication") {
      if (!(fields >> config.replication)) return bad("bad replication");
    } else if (key == "write_quorum") {
      if (!(fields >> config.write_quorum)) return bad("bad write_quorum");
    } else if (key == "read_quorum") {
      if (!(fields >> config.read_quorum)) return bad("bad read_quorum");
    } else if (key == "virtual_nodes") {
      if (!(fields >> config.virtual_nodes)) return bad("bad virtual_nodes");
    } else if (key == "ring_seed") {
      if (!(fields >> config.ring_seed)) return bad("bad ring_seed");
    } else if (key == "node") {
      ClusterNode node;
      unsigned port = 0;
      if (!(fields >> node.id >> node.host >> port) || port > 65535) {
        return bad("expected `node <id> <host> <port>`");
      }
      node.port = static_cast<uint16_t>(port);
      config.nodes.push_back(std::move(node));
    } else {
      return bad("unknown key `" + key + "`");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("cluster config: missing `cluster v1`");
  }
  SHAROES_RETURN_IF_ERROR(config.Validate());
  return config;
}

Result<ClusterConfig> ClusterConfig::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no cluster config at " + path);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return Parse(text);
}

Status ClusterConfig::SaveToFile(const std::string& path) const {
  SHAROES_RETURN_IF_ERROR(Validate());
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::string text = Serialize();
  size_t n = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (n != text.size()) return Status::IoError("short write to " + path);
  return Status::OK();
}

Result<PlacementRing> PlacementRing::Build(ClusterConfig config) {
  SHAROES_RETURN_IF_ERROR(config.Validate());
  PlacementRing ring;
  ring.config_ = std::move(config);
  const ClusterConfig& c = ring.config_;
  ring.points_.reserve(c.nodes.size() * c.virtual_nodes);
  for (uint32_t i = 0; i < c.nodes.size(); ++i) {
    // Hash the node *id* (double-mixed with the vnode ordinal), not the
    // list index: removing node 1 from {0,1,2} must leave nodes 0 and
    // 2's points exactly where they were.
    uint64_t node_hash = PlacementHash(c.ring_seed, c.nodes[i].id);
    for (uint32_t v = 0; v < c.virtual_nodes; ++v) {
      ring.points_.emplace_back(PlacementHash(node_hash, v), i);
    }
  }
  std::sort(ring.points_.begin(), ring.points_.end());
  return ring;
}

std::vector<uint32_t> PlacementRing::ReplicaIndicesFor(uint64_t key) const {
  const size_t k =
      std::min<size_t>(config_.replication, config_.nodes.size());
  std::vector<uint32_t> replicas;
  replicas.reserve(k);
  if (points_.empty()) return replicas;
  uint64_t h = PlacementHash(config_.ring_seed ^ kKeySalt, key);
  size_t at = std::upper_bound(points_.begin(), points_.end(),
                               std::make_pair(h, ~uint32_t{0})) -
              points_.begin();
  for (size_t step = 0; step < points_.size() && replicas.size() < k;
       ++step) {
    uint32_t node = points_[(at + step) % points_.size()].second;
    if (std::find(replicas.begin(), replicas.end(), node) == replicas.end()) {
      replicas.push_back(node);
    }
  }
  return replicas;
}

uint32_t PlacementRing::PrimaryIndexFor(uint64_t key) const {
  return ReplicaIndicesFor(key).at(0);
}

bool PlacementRing::Owns(uint32_t node_id, uint64_t key) const {
  for (uint32_t idx : ReplicaIndicesFor(key)) {
    if (config_.nodes[idx].id == node_id) return true;
  }
  return false;
}

}  // namespace sharoes::ssp
