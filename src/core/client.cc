#include "core/client.h"

#include <algorithm>
#include <set>

#include "crypto/merkle.h"
#include "fs/path.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace sharoes::core {

namespace {

/// Byte budget of the negative dentry cache (names a descent proved
/// absent, so repeated misses answer locally instead of re-paying the
/// table fetch).
constexpr size_t kNegativeDentryBytes = 64 << 10;

/// A directory's table is a head, then 2^depth buckets (DESIGN.md §18).
/// A read without the head asks for it together with the buckets of this
/// window, so a table up to kProbeDepth costs no round trip of its own;
/// a deeper one pays one more.
constexpr uint8_t kProbeDepth = 2;

std::vector<uint32_t> ProbeWindow() {
  std::vector<uint32_t> window;
  for (uint32_t b = 0; b < (uint32_t{1} << kProbeDepth); ++b) {
    window.push_back(b);
  }
  return window;
}

/// Builds the partial bundle a directory writer holds (table keys + data
/// signing pair); owners use MetadataView::ToBundle for the full bundle.
Result<ObjectKeyBundle> BundleForWriter(const MetadataView& view) {
  if (!view.dsk.has_value() || !view.dvk.has_value() ||
      view.table_keys.empty()) {
    return Status::PermissionDenied("no writer CAP on directory");
  }
  ObjectKeyBundle b;
  b.data = crypto::SigningKeyPair{*view.dsk, *view.dvk};
  b.table_keys = view.table_keys;
  if (view.msk.has_value() && view.mvk.has_value()) {
    b.meta = crypto::SigningKeyPair{*view.msk, *view.mvk};
    b.meks = view.meks;
  }
  if (view.dek.has_value()) b.dek = *view.dek;
  return b;
}

}  // namespace

SharoesClient::SharoesClient(fs::UserId uid,
                             crypto::RsaPrivateKey user_private_key,
                             const IdentityDirectory* identity,
                             ssp::SspChannel* conn,
                             crypto::CryptoEngine* engine,
                             const ClientOptions& options)
    : uid_(uid),
      principal_(identity->PrincipalOf(uid)),
      user_priv_(std::move(user_private_key)),
      identity_(identity),
      conn_(conn),
      engine_(engine),
      codec_(engine, identity, options.scheme),
      options_(options),
      cache_(options.cache_bytes),
      neg_cache_(kNegativeDentryBytes, nullptr, "client.dentry.neg"),
      rpc_trips_counter_(
          obs::MetricsRegistry::Global().counter("client.rpc.round_trips")),
      inode_counter_(engine->rng().NextU64() & 0xFFFFFFFFULL) {}

SharoesClient::OpScope::OpScope(SharoesClient* client, const char* op)
    : client_(client),
      span_(op),
      start_trips_(client->rpc_round_trips_),
      trips_hist_(obs::MetricsRegistry::Global().histogram(
          std::string("client.rpc.round_trips.") + op)) {}

SharoesClient::OpScope::~OpScope() {
  trips_hist_->Record(client_->rpc_round_trips_ - start_trips_);
}

Result<ssp::Response> SharoesClient::Rpc(const ssp::Request& req) {
  // Read barrier for the write-behind stage: before any read reaches the
  // wire, staged mutations must land so the SSP answers reflect this
  // client's own writes (read-your-writes). With staging on, a mutating
  // request reaches the wire only as the flush batch itself
  // (flushing_pending_); every other one is staged behind it.
  if (!flushing_pending_ && !pending_writes_.empty()) {
    SHAROES_RETURN_IF_ERROR(FlushPendingWrites());
  }
  ++rpc_round_trips_;
  rpc_trips_counter_->Increment();
  // Everything inside Call — serialization onto the socket, the server,
  // the network, transport retries/backoff — is "waiting on the wire"
  // from this op's point of view.
  obs::PhaseScope wire_phase(obs::Phase::kWireWait);
  return conn_->Call(req);
}

Result<Bytes> SharoesClient::Get(const ssp::Request& req,
                                 const std::string& what) {
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, Rpc(req));
  SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(resp.status, what));
  return std::move(resp.payload);
}

Result<std::string> SharoesClient::NormalizePath(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  return fs::JoinPath(comps);
}

std::vector<uint32_t> SharoesClient::FirstDataWindow(
    fs::InodeNum inode, const DataDescriptor* desc) const {
  // Before the descriptor is fetched the block count is unknown, so the
  // speculative first window stays small: big enough to cover most files
  // in one round trip, small enough that a one-chunk file wastes only a
  // few tiny kNotFound sub-responses. A cached descriptor knows the EOF,
  // so nothing past it is asked for.
  constexpr size_t kInitialReadChunks = 4;
  uint32_t end = 1 + static_cast<uint32_t>(std::min<size_t>(
                         options_.readahead_blocks, kInitialReadChunks));
  std::vector<uint32_t> blocks;
  if (desc == nullptr) {
    blocks.push_back(0);
  } else {
    end = std::min(end, desc->block_count);
  }
  for (uint32_t i = 1; i < end; ++i) {
    if (!cache_.Contains(DataCacheKey(inode, i))) blocks.push_back(i);
  }
  return blocks;
}

void SharoesClient::ChargeClientOverhead() {
  if (engine_->clock() != nullptr) {
    engine_->clock()->AdvanceMs(kClientOverheadMs, CostCategory::kOther);
  }
}

std::string SharoesClient::ViewCacheKey(fs::InodeNum inode,
                                        Selector sel) const {
  return "m|" + std::to_string(inode) + "|" + std::to_string(sel);
}

std::string SharoesClient::DataCacheKey(fs::InodeNum inode, uint32_t block) {
  return "d|" + std::to_string(inode) + "|" + std::to_string(block);
}

std::string SharoesClient::CandidateCacheKey(fs::InodeNum inode,
                                             uint32_t block) {
  return "c|" + std::to_string(inode) + "|" + std::to_string(block);
}

std::string SharoesClient::TableHeadCacheKey(fs::InodeNum inode,
                                             Selector sel) {
  return "t|" + std::to_string(inode) + "|" + std::to_string(sel) + "|h";
}

std::string SharoesClient::BucketCacheKey(fs::InodeNum inode, Selector sel,
                                          uint8_t depth, uint32_t bucket) {
  return "t|" + std::to_string(inode) + "|" + std::to_string(sel) + "|" +
         std::to_string(depth) + "." + std::to_string(bucket);
}

std::string SharoesClient::MasterCacheKey(fs::InodeNum inode) {
  return "M|" + std::to_string(inode);
}

std::string SharoesClient::UserSplitCacheKey(fs::InodeNum parent,
                                             fs::InodeNum child,
                                             fs::UserId uid) {
  return "u|" + std::to_string(parent) + "|" + std::to_string(child) + "|" +
         std::to_string(uid);
}

std::string SharoesClient::GroupSplitCacheKey(fs::InodeNum parent,
                                              fs::InodeNum child,
                                              uint32_t id) {
  return "g|" + std::to_string(parent) + "|" + std::to_string(child) + "|" +
         std::to_string(id);
}

std::string SharoesClient::NegDentryCacheKey(fs::InodeNum dir_inode,
                                             const std::string& name) {
  return "n|" + std::to_string(dir_inode) + "|" + name;
}

void SharoesClient::InvalidateInode(fs::InodeNum inode,
                                    bool keep_candidates) {
  std::string id = std::to_string(inode);
  cache_.ErasePrefix("m|" + id + "|");
  cache_.ErasePrefix("t|" + id + "|");
  // Chunk blocks opened from fetched wire become revalidation candidates
  // (DESIGN.md §19); the descriptor and blocks sealed here go.
  const std::string data = "d|" + id + "|";
  if (!keep_candidates) cache_.ErasePrefix("c|" + id + "|");
  for (auto& [key, value] : cache_.TakePrefix(data)) {
    const auto block_index =
        static_cast<uint32_t>(std::stoul(key.substr(data.size())));
    if (!keep_candidates || block_index == 0) continue;
    auto block = std::static_pointer_cast<const OpenedBlock>(value);
    if (block->digest.empty()) continue;
    const size_t size = block->wire_size;
    cache_.PutPtr(CandidateCacheKey(inode, block_index), std::move(block),
                  size);
  }
  cache_.Erase(MasterCacheKey(inode));
  // Split refs are keyed by parent: these are the refs of this inode's
  // children, whose rows live in the table copies erased above.
  cache_.ErasePrefix("u|" + id + "|");
  cache_.ErasePrefix("g|" + id + "|");
  neg_cache_.ErasePrefix("n|" + id + "|");
}

void SharoesClient::DropCaches() {
  cache_.Clear();
  neg_cache_.Clear();
  group_secrets_.clear();
}

Status SharoesClient::EvictPath(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  InvalidateInode(node.ref.inode);
  return Status::OK();
}

fs::InodeNum SharoesClient::AllocateInode() {
  // Partitioned allocation: the high bits carry the creator's uid, so
  // clients never contend on a shared counter (the SSP performs no
  // computation and cannot allocate).
  return (static_cast<uint64_t>(uid_) + 2) << 40 |
         (inode_counter_++ & 0xFFFFFFFFFFull);
}

Status SharoesClient::Mount() {
  OpScope span(this, "Mount");
  principal_ = identity_->PrincipalOf(uid_);
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(
      Bytes sealed, Get(ssp::Request::GetSuperblock(uid_),
                        "superblock of user " + std::to_string(uid_)));
  SHAROES_ASSIGN_OR_RETURN(superblock_,
                           codec_.DecodeSuperblock(user_priv_, sealed));
  mounted_ = true;
  return Status::OK();
}

Result<std::vector<ssp::Response>> SharoesClient::MultiGet(
    std::vector<ssp::Request> gets) {
  if (gets.empty()) return std::vector<ssp::Response>{};
  for (const ssp::Request& r : gets) {
    if (ssp::IsMutatingOp(r.op) || !ssp::IsBatchableOp(r.op)) {
      return Status::InvalidArgument(
          std::string("MultiGet sub-op must be a read, got ") +
          ssp::OpCodeName(r.op));
    }
  }
  if (gets.size() == 1) {
    // A batch of one would round-trip identically; skip the wrapper so
    // single fetches keep the legacy wire shape.
    SHAROES_ASSIGN_OR_RETURN(ssp::Response resp, Rpc(gets[0]));
    return std::vector<ssp::Response>{std::move(resp)};
  }
  size_t n = gets.size();
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::Batch(std::move(gets))));
  // A kError envelope was not executed; every sub-op is an idempotent
  // read, so re-issuing is always safe (RetryingConnection does exactly
  // that).
  SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(
      resp.status, "read batch of " + std::to_string(n) + " gets"));
  if (resp.batch.size() != n) {
    return Status::IoError("SSP answered " +
                           std::to_string(resp.batch.size()) +
                           " sub-responses to a read batch of " +
                           std::to_string(n));
  }
  return std::move(resp.batch);
}

Result<SharoesClient::Node> SharoesClient::FetchNode(const PlainRef& ref,
                                                     bool want_table,
                                                     bool want_data) {
  const bool batched = options_.readahead_blocks > 0;
  std::string view_key = ViewCacheKey(ref.inode, ref.selector);
  std::shared_ptr<const MetadataView> cached_view =
      cache_.Get<MetadataView>(view_key);
  bool fetch_view = cached_view == nullptr;
  Node node;
  node.ref = ref;
  // The table's part of the batch: the head and the probe window, when
  // this level is cold (its view or the table's head is not cached).
  // With both cached, FetchTable fetches what a lookup misses, and this
  // level would have made that one round trip anyway.
  bool fetch_head =
      batched && want_table &&
      (fetch_view ||
       !cache_.Contains(TableHeadCacheKey(ref.inode, ref.selector)));
  std::vector<uint32_t> table_blocks;
  if (fetch_head) table_blocks = ProbeWindow();
  std::vector<uint32_t> data_blocks;
  if (batched && want_data) {
    node.desc = cache_.Get<DataDescriptor>(DataCacheKey(ref.inode, 0));
    data_blocks = FirstDataWindow(ref.inode, node.desc.get());
  }
  std::vector<ssp::Request> gets;
  if (fetch_view) {
    gets.push_back(ssp::Request::GetMetadata(ref.inode, ref.selector));
  }
  if (fetch_head) {
    gets.push_back(ssp::Request::GetMetadata(ref.inode,
                                             TableSelector(ref.selector)));
  }
  for (uint32_t b : table_blocks) {
    gets.push_back(ssp::Request::GetMetadata(
        ref.inode, BucketSelector(ref.selector, b)));
  }
  for (uint32_t b : data_blocks) gets.push_back(DataGet(&node, b));
  SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                           MultiGet(std::move(gets)));
  size_t idx = 0;
  if (fetch_view) {
    const ssp::Response& r = resps[idx++];
    SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(
        r.status, "metadata " + std::to_string(ref.inode) + " replica " +
                      std::to_string(ref.selector)));
    SHAROES_ASSIGN_OR_RETURN(
        node.view, codec_.DecodeMetadataReplica(ref.inode, ref.selector,
                                                r.payload, ref.mek, ref.mvk));
    cache_.Put(view_key, node.view, r.payload.size());
  } else {
    node.view = *cached_view;
  }
  if (fetch_head) {
    TakeTableProbe(&node, resps[idx], table_blocks, &resps[idx + 1]);
    idx += 1 + table_blocks.size();
  }
  if (!data_blocks.empty() && node.view.CanReadData()) {
    (void)TakeDataWindow(&node, data_blocks, &resps[idx]);
  }
  return node;
}

void SharoesClient::TakeTableProbe(Node* dir, const ssp::Response& head,
                                   const std::vector<uint32_t>& blocks,
                                   const ssp::Response* resps) {
  const MetadataView& view = dir->view;
  if (!view.attrs.is_dir() || !view.dek.has_value() ||
      !view.dvk.has_value() || !head.ok()) {
    return;
  }
  const fs::InodeNum inode = dir->ref.inode;
  const Selector sel = dir->ref.selector;
  auto decoded =
      codec_.DecodeTableHead(inode, sel, head.payload, *view.dek, *view.dvk);
  if (!decoded.ok()) return;
  const TableHead h = *decoded;
  dir->head = h;
  cache_.Put(TableHeadCacheKey(inode, sel), h, head.payload.size());
  for (size_t j = 0; j < blocks.size(); ++j) {
    if (blocks[j] >= h.buckets() || !resps[j].ok()) continue;
    auto bucket = codec_.DecodeTableBucket(inode, sel, h.depth, blocks[j],
                                           resps[j].payload, *view.dek,
                                           *view.dvk);
    if (!bucket.ok()) continue;
    auto sp = std::make_shared<const DecodedTable>(std::move(*bucket));
    cache_.PutPtr(BucketCacheKey(inode, sel, h.depth, blocks[j]), sp,
                  resps[j].payload.size());
    dir->buckets[blocks[j]] = std::move(sp);
  }
}

Status SharoesClient::TakeDataWindow(Node* node,
                                     const std::vector<uint32_t>& blocks,
                                     const ssp::Response* resps) {
  size_t j = 0;
  if (node->desc == nullptr) {
    // FirstDataWindow lists block 0 first whenever the descriptor is
    // unknown. It gates everything else: without it the chunk blocks'
    // generations cannot be validated against anything.
    SHAROES_RETURN_IF_ERROR(OpenDataReply(node, 0, resps[0]));
    j = 1;
  }
  for (; j < blocks.size(); ++j) {
    if (blocks[j] >= node->desc->block_count) continue;  // Past EOF.
    // Best effort: a block that fails to open is simply not taken.
    (void)OpenDataReply(node, blocks[j], resps[j]);
  }
  return Status::OK();
}

std::vector<uint32_t> SharoesClient::BucketsFor(
    const TableHead& head, const crypto::SymmetricKey& key,
    const std::string* name) {
  if (name != nullptr) return {ObjectCodec::BucketOf(key, *name, head.depth)};
  std::vector<uint32_t> out;
  for (uint32_t b = 0; b < head.buckets(); ++b) out.push_back(b);
  return out;
}

Result<SharoesClient::TableRead> SharoesClient::ReadTable(
    fs::InodeNum inode, Selector sel, const crypto::SymmetricKey& key,
    const crypto::VerifyKey& dvk, std::optional<TableHead> head,
    const std::function<std::vector<uint32_t>(const TableHead&)>& want) {
  for (;;) {
    const bool fresh = !head.has_value();
    std::vector<uint32_t> first = fresh ? ProbeWindow() : want(*head);
    std::vector<ssp::Request> gets;
    if (fresh) gets.push_back(ssp::Request::GetMetadata(inode,
                                                        TableSelector(sel)));
    for (uint32_t b : first) {
      gets.push_back(ssp::Request::GetMetadata(inode, BucketSelector(sel, b)));
    }
    TableRead read;
    if (gets.empty()) {
      read.head = *head;
      return read;
    }
    SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                             MultiGet(std::move(gets)));
    size_t idx = 0;
    if (fresh) {
      SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(resps[0].status, "table head"));
      SHAROES_ASSIGN_OR_RETURN(
          head, codec_.DecodeTableHead(inode, sel, resps[0].payload, key, dvk));
      idx = 1;
    }
    read.head = *head;
    std::map<uint32_t, ssp::Response*> got;
    for (uint32_t b : first) got[b] = &resps[idx++];
    std::vector<uint32_t> needed = fresh ? want(*head) : first;
    // A table deeper than the probe window: the rest in one more batch.
    std::vector<uint32_t> rest;
    for (uint32_t b : needed) {
      if (got.count(b) == 0) rest.push_back(b);
    }
    std::vector<ssp::Response> more;
    if (!rest.empty()) {
      std::vector<ssp::Request> more_gets;
      for (uint32_t b : rest) {
        more_gets.push_back(
            ssp::Request::GetMetadata(inode, BucketSelector(sel, b)));
      }
      SHAROES_ASSIGN_OR_RETURN(more, MultiGet(std::move(more_gets)));
      for (size_t j = 0; j < rest.size(); ++j) got[rest[j]] = &more[j];
    }
    bool stale = false;
    for (uint32_t b : needed) {
      ssp::Response& r = *got[b];
      if (r.status == ssp::RespStatus::kNotFound) {
        // Against a head fetched with the buckets, a damaged table.
        if (fresh) {
          return Status::Corruption("table bucket missing at its head's "
                                    "depth");
        }
        stale = true;
        continue;
      }
      SHAROES_RETURN_IF_ERROR(ssp::ReadStatus(r.status, "table bucket"));
      if (!fresh && ObjectCodec::PeekBucketDepth(r.payload).value_or(
                        head->depth) != head->depth) {
        stale = true;
        continue;
      }
      read.wires[b] = std::move(r.payload);
    }
    if (!stale) return read;
    // A cached head may predate a resize: it is fetched once more, with
    // the buckets it names.
    head.reset();
  }
}

Result<SharoesClient::TableSlice> SharoesClient::FetchTable(
    const Node& dir, const std::string* name) {
  if (!dir.view.attrs.is_dir()) {
    return Status::InvalidArgument("not a directory");
  }
  if (!dir.view.dek.has_value() || !dir.view.dvk.has_value()) {
    return Status::PermissionDenied("no table access on directory");
  }
  const fs::InodeNum inode = dir.ref.inode;
  const Selector sel = dir.ref.selector;
  const crypto::SymmetricKey& key = *dir.view.dek;
  // The buckets the caller needs under a head; those the descent opened
  // or the cache holds are taken now, so later puts cannot evict them
  // before they are returned.
  std::map<uint32_t, std::shared_ptr<const DecodedTable>> have;
  auto wanted = [&](const TableHead& h) {
    have.clear();
    const bool opened = dir.head.has_value() && dir.head->depth == h.depth;
    std::vector<uint32_t> missing;
    for (uint32_t b : BucketsFor(h, key, name)) {
      auto it = opened ? dir.buckets.find(b) : dir.buckets.end();
      if (it != dir.buckets.end()) {
        have[b] = it->second;
      } else if (auto cached = cache_.Get<DecodedTable>(
                     BucketCacheKey(inode, sel, h.depth, b))) {
        have[b] = std::move(cached);
      } else {
        missing.push_back(b);
      }
    }
    return missing;
  };
  std::optional<TableHead> head = dir.head;
  if (!head.has_value()) {
    if (auto cached = cache_.Get<TableHead>(TableHeadCacheKey(inode, sel))) {
      head = *cached;
    }
  }
  if (head.has_value()) {
    // The warm path: every bucket asked for is at hand.
    if (wanted(*head).empty()) {
      TableSlice slice{*head, {}};
      for (auto& [b, bucket] : have) slice.buckets.push_back(bucket);
      return slice;
    }
  }
  SHAROES_ASSIGN_OR_RETURN(TableRead read,
                           ReadTable(inode, sel, key, *dir.view.dvk, head,
                                     wanted));
  if (!head.has_value() || head->depth != read.head.depth) {
    cache_.Put(TableHeadCacheKey(inode, sel), read.head, 1);
  }
  for (auto& [b, wire] : read.wires) {
    SHAROES_ASSIGN_OR_RETURN(
        DecodedTable bucket,
        codec_.DecodeTableBucket(inode, sel, read.head.depth, b, wire, key,
                                 *dir.view.dvk));
    auto sp = std::make_shared<const DecodedTable>(std::move(bucket));
    cache_.PutPtr(BucketCacheKey(inode, sel, read.head.depth, b), sp,
                  wire.size());
    have[b] = std::move(sp);
  }
  TableSlice slice;
  slice.head = read.head;
  for (auto& [b, bucket] : have) slice.buckets.push_back(std::move(bucket));
  return slice;
}

Result<GroupSecret> SharoesClient::FetchGroupSecret(fs::GroupId gid) {
  auto it = group_secrets_.find(gid);
  if (it != group_secrets_.end()) return it->second;
  Result<Bytes> sealed =
      Get(ssp::Request::GetGroupKey(gid, uid_), "group key block");
  if (sealed.status().IsNotFound()) {
    return Status::PermissionDenied("no group key block for group " +
                                    std::to_string(gid) + " user " +
                                    std::to_string(uid_));
  }
  SHAROES_RETURN_IF_ERROR(sealed.status());
  SHAROES_ASSIGN_OR_RETURN(GroupSecret secret,
                           codec_.DecodeGroupKeyBlock(user_priv_, *sealed));
  group_secrets_[gid] = secret;
  return secret;
}

Result<PlainRef> SharoesClient::ResolveRowRef(fs::InodeNum parent,
                                             const RowRef& row) {
  if (row.kind == RowRef::Kind::kPlain) return row.plain;
  // Split point. A per-user block takes precedence (it exists exactly for
  // readers whose class diverges from the shared group block — e.g. the
  // child's owner, who may also be a group member); group members without
  // one fall back to the shared group block. The unwrapped ref is part of
  // the parent's row, so it is cached under the parent and lives as long
  // as the parent's table: re-opening the child pays no RSA op again.
  std::string ukey = UserSplitCacheKey(parent, row.inode, uid_);
  if (auto cached = cache_.Get<PlainRef>(ukey)) return *cached;
  std::string gkey = GroupSplitCacheKey(parent, row.inode, row.gid);
  if (row.has_group_block && principal_.MemberOf(row.gid)) {
    if (auto cached = cache_.Get<PlainRef>(gkey)) return *cached;
  }
  Result<Bytes> mine =
      Get(ssp::Request::GetUserMetadata(row.inode, uid_), "split block");
  if (mine.ok()) {
    SHAROES_ASSIGN_OR_RETURN(PlainRef ref,
                             codec_.DecodeRefBlock(user_priv_, *mine));
    cache_.Put(ukey, ref, mine->size());
    return ref;
  }
  // Only a per-user block the SSP does not hold sends a reader to the
  // group block. A transient fault must not: the child's owner would go
  // on using the group CAP for as long as the ref stays cached.
  if (!mine.status().IsNotFound()) return mine.status();
  if (row.has_group_block && principal_.MemberOf(row.gid)) {
    SHAROES_ASSIGN_OR_RETURN(
        Bytes sealed,
        Get(ssp::Request::GetUserMetadata(row.inode, GroupBlockKey(row.gid)),
            "group split block"));
    SHAROES_ASSIGN_OR_RETURN(GroupSecret secret, FetchGroupSecret(row.gid));
    SHAROES_ASSIGN_OR_RETURN(
        PlainRef ref, codec_.DecodeRefBlock(secret.private_key, sealed));
    cache_.Put(gkey, ref, sealed.size());
    return ref;
  }
  return Status::PermissionDenied("no split block for this user");
}

Result<SharoesClient::Node> SharoesClient::ResolvePath(
    const std::string& path, ReadIntent intent) {
  if (!mounted_) return Status::FailedPrecondition("not mounted");
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  PlainRef ref = superblock_.root_ref;
  Node node;
  for (size_t i = 0;; ++i) {
    const bool last = i == comps.size();
    // A remembered negative dentry short-circuits after the permission
    // checks below — and also tells the coalesced fetch not to pay bytes
    // for a table it will not consult.
    const bool neg =
        !last && neg_cache_.Get<bool>(NegDentryCacheKey(ref.inode,
                                                        comps[i])) != nullptr;
    bool want_table = !last && !neg;
    bool want_data = last && intent == ReadIntent::kData;
    if (last && intent == ReadIntent::kTable) want_table = true;
    SHAROES_ASSIGN_OR_RETURN(node, FetchNode(ref, want_table, want_data));
    if (last) return node;
    const std::string& comp = comps[i];
    if (!node.view.attrs.is_dir()) {
      return Status::InvalidArgument("'" + comp +
                                     "' parent is not a directory");
    }
    // Traversal needs exec on the directory (*nix semantics; also
    // cryptographically required to obtain the child's keys).
    if (!fs::Allows(node.view.attrs, principal_, fs::Access::kExec)) {
      return Status::PermissionDenied("no exec permission on directory");
    }
    if (neg) {
      return Status::NotFound("no entry named '" + comp + "'");
    }
    SHAROES_ASSIGN_OR_RETURN(TableSlice table, FetchTable(node, &comp));
    auto remember_absent = [&] {
      std::string nkey = NegDentryCacheKey(ref.inode, comp);
      neg_cache_.Put(nkey, true, nkey.size() + 1);
    };
    // The bucket's own view: a copy's view changes at a chmod, which a
    // cached head does not see.
    const DecodedTable& bucket = *table.buckets.at(0);
    RowRef row;
    switch (bucket.view) {
      case TableView::kFull: {
        auto it = bucket.refs.find(comp);
        if (it == bucket.refs.end()) {
          remember_absent();
          return Status::NotFound("no entry named '" + comp + "'");
        }
        row = it->second;
        break;
      }
      case TableView::kExecOnly: {
        auto looked = codec_.ExecOnlyLookup(bucket, *node.view.dek, comp);
        if (!looked.ok()) {
          if (looked.status().IsNotFound()) remember_absent();
          return looked.status();
        }
        row = *looked;
        break;
      }
      case TableView::kNamesOnly:
      case TableView::kNone:
        return Status::PermissionDenied(
            "directory CAP does not permit traversal");
    }
    SHAROES_ASSIGN_OR_RETURN(ref, ResolveRowRef(node.ref.inode, row));
  }
}

Result<fs::InodeAttrs> SharoesClient::Getattr(const std::string& path) {
  OpScope span(this, "Getattr");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  fs::InodeAttrs attrs = node.view.attrs;
  // File sizes live in the signed data descriptor, not in metadata (plain
  // writers hold no MSK — see DESIGN.md §5). Report the freshest size
  // this client can know without extra round trips: a dirty write buffer
  // or the locally cached descriptor.
  if (!attrs.is_dir()) {
    SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
    auto buf_it = write_buffers_.find(norm);
    if (buf_it != write_buffers_.end()) {
      attrs.size = buf_it->second.content.size();
    } else if (auto desc = cache_.Get<DataDescriptor>(
                   DataCacheKey(node.ref.inode, 0))) {
      attrs.size = desc->size;
    }
  }
  return attrs;
}

Result<std::vector<std::string>> SharoesClient::Readdir(
    const std::string& path) {
  OpScope span(this, "Readdir");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path, ReadIntent::kTable));
  if (!node.view.attrs.is_dir()) {
    return Status::InvalidArgument("not a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kRead)) {
    return Status::PermissionDenied("no read permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(TableSlice table, FetchTable(node, nullptr));
  std::vector<std::string> names;
  for (const auto& bucket : table.buckets) {
    names.insert(names.end(), bucket->names.begin(), bucket->names.end());
  }
  return names;
}

Status SharoesClient::ExecuteBatch(std::vector<ssp::Request> requests) {
  if (requests.empty()) return Status::OK();
  if (options_.write_batch_ops == 0) {
    return SettleBatch(requests, ExecuteBatchNow(requests));
  }
  // Write-behind: stage the sub-ops and ship them at the next flush
  // point. Submission order is preserved, so the flushed batch applies
  // exactly like the immediate path would have.
  for (ssp::Request& r : requests) {
    pending_write_bytes_ += r.payload.size() + 48;  // ~frame overhead.
    pending_writes_.push_back(std::move(r));
  }
  if (pending_writes_.size() >= options_.write_batch_ops ||
      pending_write_bytes_ >= options_.write_batch_bytes) {
    return FlushPendingWrites();
  }
  return Status::OK();
}

Status SharoesClient::ExecuteBatchNow(
    const std::vector<ssp::Request>& requests) {
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::Batch(requests)));
  if (!resp.ok()) {
    std::string what = std::string("SSP rejected batch of ") +
                       std::to_string(requests.size()) + " ops (" +
                       ssp::RespStatusName(resp.status) + ")";
    // kError = well-formed but not executed with a durability guarantee;
    // the idempotent sub-ops are safe to re-issue. kBadRequest is final.
    return resp.status == ssp::RespStatus::kError ? Status::Unavailable(what)
                                                  : Status::IoError(what);
  }
  if (resp.batch.size() != requests.size()) {
    return Status::IoError("SSP answered " +
                           std::to_string(resp.batch.size()) +
                           " sub-responses to a batch of " +
                           std::to_string(requests.size()));
  }
  for (size_t i = 0; i < resp.batch.size(); ++i) {
    const ssp::Response& sub = resp.batch[i];
    if (sub.status == ssp::RespStatus::kBadRequest ||
        sub.status == ssp::RespStatus::kError) {
      std::string what =
          std::string("SSP rejected batched sub-op ") + std::to_string(i) +
          "/" + std::to_string(requests.size()) + " (" +
          ssp::OpCodeName(requests[i].op) + ": " +
          ssp::RespStatusName(sub.status) + ")";
      return sub.status == ssp::RespStatus::kError ? Status::Unavailable(what)
                                                   : Status::IoError(what);
    }
  }
  return Status::OK();
}

Status SharoesClient::FlushPendingWrites() {
  if (pending_writes_.empty()) return Status::OK();
  obs::PhaseScope flush_phase(obs::Phase::kStageFlush);
  flushing_pending_ = true;
  Status shipped = ExecuteBatchNow(pending_writes_);
  flushing_pending_ = false;
  // Transient outcomes (not executed, or executed without the ack — both
  // replay-safe for these idempotent sub-ops) keep the stage, and its
  // pending versions, so the next flush point retries; anything else
  // resolves the ops' fate, so the stage clears and the error surfaces
  // exactly once.
  if (shipped.IsUnavailable() || shipped.IsDeadlineExceeded()) return shipped;
  shipped = SettleBatch(pending_writes_, std::move(shipped));
  pending_writes_.clear();
  pending_write_bytes_ = 0;
  return shipped;
}

Status SharoesClient::SettleBatch(const std::vector<ssp::Request>& requests,
                                  Status outcome) {
  versions_.Settle(outcome.ok());
  if (outcome.ok()) return outcome;
  // The SSP may hold the old state or (an immediate batch whose ack was
  // lost) the new one. Drop what this client cached on the batch's behalf
  // — a parent's re-rendered tables and master, a new object's view, a
  // file's new blocks — so every named inode is refetched from the SSP.
  std::set<fs::InodeNum> named;
  for (const ssp::Request& r : requests) {
    if (r.inode != fs::kInvalidInode) named.insert(r.inode);
  }
  for (fs::InodeNum inode : named) InvalidateInode(inode);
  return outcome;
}

Status SharoesClient::Fsync() {
  OpScope scope(this, "Fsync");
  return FlushPendingWrites();
}

Result<StoredMaster> SharoesClient::FetchMaster(const Node& dir,
                                                const ObjectKeyBundle& bundle) {
  auto it = bundle.table_keys.find(kMasterSelector);
  if (it == bundle.table_keys.end()) {
    return Status::PermissionDenied("no master table key");
  }
  const fs::InodeNum inode = dir.ref.inode;
  std::string key = MasterCacheKey(inode);
  if (auto cached = cache_.Get<StoredMaster>(key)) return *cached;
  auto every = [&](const TableHead& h) {
    return BucketsFor(h, it->second, nullptr);
  };
  SHAROES_ASSIGN_OR_RETURN(
      TableRead read, ReadTable(inode, kMasterSelector, it->second,
                                bundle.data.verify, std::nullopt, every));
  StoredMaster master;
  master.depth = read.head.depth;
  size_t wire_bytes = 0;
  for (const auto& [b, wire] : read.wires) {
    SHAROES_ASSIGN_OR_RETURN(
        MasterTable bucket,
        codec_.DecodeMasterBucket(inode, read.head.depth, b, wire,
                                  it->second));
    for (MasterEntry& e : bucket.entries) {
      master.table.entries.push_back(std::move(e));
    }
    wire_bytes += wire.size();
  }
  cache_.Put(key, master, wire_bytes);
  return master;
}

Result<SharoesClient::WriterDirContext> SharoesClient::LoadDirForWrite(
    const std::string& dir_path) {
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(dir_path));
  if (!node.view.attrs.is_dir()) {
    return Status::InvalidArgument("'" + dir_path + "' is not a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kWrite) ||
      !fs::Allows(node.view.attrs, principal_, fs::Access::kExec)) {
    return Status::PermissionDenied("no write permission on directory");
  }
  SHAROES_ASSIGN_OR_RETURN(ObjectKeyBundle bundle, BundleForWriter(node.view));
  SHAROES_ASSIGN_OR_RETURN(StoredMaster master, FetchMaster(node, bundle));
  WriterDirContext ctx;
  ctx.ownership = OwnershipInfo::FromAttrs(node.view.attrs);
  ctx.node = std::move(node);
  ctx.master = std::move(master);
  ctx.bundle = std::move(bundle);
  return ctx;
}

Status SharoesClient::RenderDirTables(
    const WriterDirContext& ctx, std::vector<ssp::Request>* out,
    const std::vector<std::string>* changed) {
  fs::InodeNum inode = ctx.node.ref.inode;
  const StoredMaster& master = ctx.master;
  ObjectCodec::ReaderCopy mine;
  mine.selector = ctx.node.ref.selector;
  ObjectCodec::DirRender render;
  render.depth =
      ObjectCodec::NextDepth(master.depth, master.table.entries.size());
  render.stored_depth = master.depth;
  render.changed = render.depth == master.depth ? changed : nullptr;
  render.reader = &mine;
  SHAROES_RETURN_IF_ERROR(codec_.RenderDirTables(
      inode, ctx.ownership, master.table, ctx.bundle, out, render));
  // Refresh our cached view of this directory: stale copies out, the
  // updated master and our own freshly rendered copy in (the paper's
  // client keeps the table it just modified in memory).
  std::string id = std::to_string(inode);
  cache_.ErasePrefix("t|" + id + "|");
  // The render rewrote the split blocks of this directory's rows.
  cache_.ErasePrefix("u|" + id + "|");
  cache_.ErasePrefix("g|" + id + "|");
  // The directory's membership just changed: names that were absent may
  // exist now, so every negative dentry under it is stale.
  neg_cache_.ErasePrefix("n|" + id + "|");
  cache_.Put(MasterCacheKey(inode), StoredMaster{master.table, render.depth},
             master.table.Serialize().size());
  cache_.Put(TableHeadCacheKey(inode, mine.selector), mine.head, 1);
  for (uint32_t b = 0; b < mine.buckets.size(); ++b) {
    cache_.Put(BucketCacheKey(inode, mine.selector, render.depth, b),
               std::move(mine.buckets[b]), mine.sizes[b]);
  }
  return Status::OK();
}

Status SharoesClient::CreateObject(const std::string& path, fs::FileType type,
                                   const CreateOptions& opts) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Mkdir" : "Create");
  ChargeClientOverhead();
  if (!ModeSupported(type, opts.mode)) {
    return Status::Unsupported("mode " + opts.mode.ToString() +
                               " is not representable for a " +
                               fs::FileTypeName(type) +
                               " in the outsourced model");
  }
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(WriterDirContext ctx, LoadDirForWrite(sp.parent));
  if (ctx.master.table.Find(sp.name) != nullptr) {
    return Status::AlreadyExists("'" + path + "' already exists");
  }

  // Build the child object.
  fs::InodeAttrs attrs;
  attrs.inode = AllocateInode();
  attrs.type = type;
  attrs.owner = uid_;
  attrs.group = options_.default_group;
  attrs.mode = opts.mode;
  attrs.acl = opts.acl;
  attrs.mtime = engine_->clock() != nullptr ? engine_->clock()->now_ns() : 0;
  OwnershipInfo info = OwnershipInfo::FromAttrs(attrs);
  std::vector<ReplicaSpec> specs =
      ReplicasFor(info, options_.scheme, *identity_);
  ObjectKeyBundle bundle = codec_.NewBundle(type, specs);

  // Batch 1: the child's metadata replicas (and, for directories, its
  // empty table copies) — the paper's "metadata send".
  std::vector<ssp::Request> batch1;
  codec_.RenderReplicas(attrs, specs, bundle, &batch1);
  if (type == fs::FileType::kDirectory) {
    SHAROES_RETURN_IF_ERROR(codec_.RenderDirTables(
        attrs.inode, info, MasterTable{}, bundle, &batch1,
        ObjectCodec::DirRender{}));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch1)));

  // Batch 2: the parent's updated tables — the paper's "parent-dir send".
  SHAROES_RETURN_IF_ERROR(
      ctx.master.table.Add(ObjectCodec::EntryFor(sp.name, attrs, bundle)));
  std::vector<ssp::Request> batch2;
  const std::vector<std::string> changed = {sp.name};
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch2, &changed));
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch2)));
  // The creator keeps its own view of the new object in memory, and
  // knows the file has never been written (write generation 0).
  versions_.Created(attrs.inode);
  ReplicaSpec my_spec = SpecFor(info, principal_, options_.scheme);
  MetadataView my_view = ObjectCodec::BuildView(my_spec, attrs, bundle);
  cache_.Put(ViewCacheKey(attrs.inode, my_spec.selector), my_view,
             my_view.Serialize().size());
  if (type == fs::FileType::kDirectory) {
    // The creator also knows the new directory is empty: seed the master-
    // table cache so the first create inside it skips the fetch of a
    // table this client rendered moments ago.
    StoredMaster empty;
    cache_.Put(MasterCacheKey(attrs.inode), empty,
               empty.table.Serialize().size());
  }
  return Status::OK();
}

Status SharoesClient::Mkdir(const std::string& path,
                            const CreateOptions& opts) {
  return CreateObject(path, fs::FileType::kDirectory, opts);
}

Status SharoesClient::Create(const std::string& path,
                             const CreateOptions& opts) {
  return CreateObject(path, fs::FileType::kFile, opts);
}

ssp::Request SharoesClient::DataGet(Node* node, uint32_t block) {
  ssp::Request get = ssp::Request::GetData(node->ref.inode, block);
  const std::string key = CandidateCacheKey(node->ref.inode, block);
  if (cache_.Contains(key)) {
    auto candidate = cache_.Get<OpenedBlock>(key);
    get.payload = candidate->digest;
    node->candidates[block] = std::move(candidate);
  }
  return get;
}

Status SharoesClient::FetchBlocks(Node* node,
                                  const std::vector<uint32_t>& blocks) {
  // Readahead windows, one batched round trip each — or one RPC per
  // block with batching off, the pre-batching wire behaviour kept as the
  // benchmark comparator.
  size_t window_size = std::max<size_t>(options_.readahead_blocks, 1);
  std::vector<uint32_t> refused;  // Candidates that failed their checks.
  for (size_t pos = 0; pos < blocks.size(); pos += window_size) {
    size_t end = std::min(blocks.size(), pos + window_size);
    std::vector<ssp::Request> gets;
    gets.reserve(end - pos);
    for (size_t j = pos; j < end; ++j) {
      gets.push_back(DataGet(node, blocks[j]));
    }
    SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                             MultiGet(std::move(gets)));
    for (size_t j = pos; j < end; ++j) {
      const bool candidate = node->candidates.count(blocks[j]) != 0;
      Status opened = OpenDataReply(node, blocks[j], resps[j - pos]);
      if (!opened.ok() && candidate &&
          resps[j - pos].status == ssp::RespStatus::kNotModified) {
        refused.push_back(blocks[j]);
        continue;
      }
      SHAROES_RETURN_IF_ERROR(opened);
    }
  }
  // TakeCandidate dropped the refused candidates, so these gets carry no
  // digest.
  return refused.empty() ? Status::OK() : FetchBlocks(node, refused);
}

Result<Bytes> SharoesClient::FetchFileContent(Node node) {
  if (!node.view.CanReadData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DVK");
  }
  fs::InodeNum inode = node.ref.inode;
  if (node.desc == nullptr) {
    node.desc = cache_.Get<DataDescriptor>(DataCacheKey(inode, 0));
  }
  if (node.desc == nullptr) {
    // Cold block 0: the descent's first data window, fetched now (the
    // block count is still unknown, so gets past EOF come back as
    // harmless kNotFound sub-responses). Only a real kNotFound on block 0
    // means "no data"; a transient kError stays Unavailable, never an
    // empty file.
    std::vector<uint32_t> window = FirstDataWindow(inode, nullptr);
    std::vector<ssp::Request> gets;
    gets.reserve(window.size());
    for (uint32_t b : window) gets.push_back(DataGet(&node, b));
    SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                             MultiGet(std::move(gets)));
    Status taken = TakeDataWindow(&node, window, resps.data());
    if (taken.IsNotFound()) {
      if (versions_.NeverWritten(inode)) return Bytes{};
      // A file this client saw written loses its data only with its
      // metadata (an unlink: the view fetch says NotFound). Otherwise the
      // SSP dropped the data, which must not read as an empty file.
      cache_.Erase(ViewCacheKey(inode, node.ref.selector));
      SHAROES_RETURN_IF_ERROR(FetchNode(node.ref, false, false).status());
      return Status::Corruption("data dropped: block 0 missing at the SSP");
    }
    SHAROES_RETURN_IF_ERROR(taken);
  }
  const DataDescriptor& desc = *node.desc;
  // Freshness (SUNDR-style rollback detection, paper §VIII): the write
  // generation this client has observed for an inode never moves
  // backwards, and one generation never shows two contents.
  SHAROES_RETURN_IF_ERROR(
      versions_.Observe(inode, desc.write_gen, desc.tag_root));

  // Chunk blocks the first window opened are in node.window already; the
  // rest come from the cache or the SSP.
  std::vector<uint32_t> missing;
  for (uint32_t i = 1; i < desc.block_count; ++i) {
    if (node.window.count(i) != 0) continue;
    if (auto cached = cache_.Get<OpenedBlock>(DataCacheKey(inode, i))) {
      node.window.emplace(i, std::move(cached));
      node.reused.insert(i);
    } else {
      missing.push_back(i);
    }
  }
  SHAROES_RETURN_IF_ERROR(FetchBlocks(&node, missing));
  Result<Bytes> content = Reassemble(node);
  if (content.ok() || node.reused.empty()) return content;
  // A chunk this read did not download can be of another version than
  // the descriptor just fetched: the cache may have dropped the
  // descriptor and kept the chunks. Re-ask those chunks once,
  // unconditionally, before calling the file corrupt.
  std::vector<uint32_t> again(node.reused.begin(), node.reused.end());
  node.reused.clear();
  for (uint32_t i : again) {
    node.window.erase(i);
    cache_.Erase(CandidateCacheKey(inode, i));
  }
  SHAROES_RETURN_IF_ERROR(FetchBlocks(&node, again));
  return Reassemble(node);
}

Result<Bytes> SharoesClient::Reassemble(const Node& node) {
  const DataDescriptor& desc = *node.desc;
  Bytes content;
  std::vector<Bytes> tags;  // Merkle leaves: blocks 1..block_count-1.
  for (uint32_t i = 1; i < desc.block_count; ++i) {
    const OpenedBlock& b = *node.window.at(i);
    ::sharoes::Append(content, b.chunk);
    tags.push_back(b.tag);
  }
  // The one signature a reader verifies (block 0) commits to the chunk
  // blocks only through the descriptor's Merkle root: re-derive it from
  // the tags actually served and compare. A cross-block splice — valid
  // AEAD blocks lifted from another consistent version of this file —
  // fails here even though every individual tag authenticated, and a
  // reader who forged chunk tags with the shared DEK fails here because
  // it cannot re-sign block 0 without the DSK.
  if (!ConstantTimeEquals(crypto::MerkleRoot(tags), desc.tag_root)) {
    return Status::Corruption(
        "block tag root mismatch: chunk blocks do not match the signed "
        "descriptor");
  }
  if (content.size() != desc.size) {
    return Status::Corruption("file size mismatch after reassembly");
  }
  return content;
}

Result<bool> SharoesClient::CheckBlockHeader(
    const Node& node, uint32_t index, const ObjectCodec::DataBlockHeader& h) {
  if (index != 0 && h.write_gen != node.desc->GenOfBlock(index)) {
    return Status::Corruption(
        "data block generation does not match the descriptor");
  }
  // A block one key generation ahead was written after a lazy rotation.
  const MetadataView& view = node.view;
  bool rotated = h.key_gen == view.dek_gen + 1 && view.dek_next.has_value();
  if (h.key_gen != view.dek_gen && !rotated) {
    return Status::PermissionDenied(
        "data re-encrypted under a rotated key (access revoked)");
  }
  return rotated;
}

Status SharoesClient::OpenDataBlock(Node* node, uint32_t index,
                                    const Bytes& wire) {
  fs::InodeNum inode = node->ref.inode;
  const MetadataView& view = node->view;
  SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h,
                           ObjectCodec::PeekDataHeader(wire));
  SHAROES_ASSIGN_OR_RETURN(bool rotated, CheckBlockHeader(*node, index, h));
  if (index == 0) {
    SHAROES_ASSIGN_OR_RETURN(DataDescriptor desc,
                             codec_.DecodeDescriptor(inode, wire, *view.dvk));
    node->desc = std::make_shared<const DataDescriptor>(std::move(desc));
    cache_.PutPtr(DataCacheKey(inode, 0), node->desc, wire.size());
    return Status::OK();
  }
  OpenedBlock opened;
  SHAROES_ASSIGN_OR_RETURN(
      opened.chunk,
      codec_.DecodeDataBlock(inode, index, wire,
                             rotated ? *view.dek_next : *view.dek,
                             &opened.tag));
  opened.digest = ssp::BlobDigest(wire);
  opened.header = h;
  opened.wire_size = wire.size();
  auto shared = std::make_shared<const OpenedBlock>(std::move(opened));
  cache_.PutPtr(DataCacheKey(inode, index), shared, wire.size());
  node->window[index] = std::move(shared);
  return Status::OK();
}

Status SharoesClient::OpenDataReply(Node* node, uint32_t index,
                                    const ssp::Response& resp) {
  if (resp.status == ssp::RespStatus::kNotModified &&
      node->candidates.count(index) != 0) {
    return TakeCandidate(node, index);
  }
  SHAROES_RETURN_IF_ERROR(
      ssp::ReadStatus(resp.status, "data block " + std::to_string(index)));
  return OpenDataBlock(node, index, resp.payload);
}

Status SharoesClient::TakeCandidate(Node* node, uint32_t index) {
  const fs::InodeNum inode = node->ref.inode;
  std::shared_ptr<const OpenedBlock> candidate =
      std::move(node->candidates.at(index));
  node->candidates.erase(index);
  cache_.Erase(CandidateCacheKey(inode, index));
  SHAROES_RETURN_IF_ERROR(
      CheckBlockHeader(*node, index, candidate->header).status());
  cache_.PutPtr(DataCacheKey(inode, index), candidate, candidate->wire_size);
  node->window[index] = std::move(candidate);
  node->reused.insert(index);
  return Status::OK();
}

Result<Bytes> SharoesClient::Read(const std::string& path) {
  OpScope span(this, "Read");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto buf_it = write_buffers_.find(norm);
  if (buf_it != write_buffers_.end()) return buf_it->second.content;
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path, ReadIntent::kData));
  if (node.view.attrs.is_dir()) {
    return Status::InvalidArgument("cannot Read a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kRead)) {
    return Status::PermissionDenied("no read permission");
  }
  return FetchFileContent(std::move(node));
}

Status SharoesClient::Write(const std::string& path, const Bytes& content) {
  OpScope span(this, "Write");
  // Buffers key by the canonical spelling: "/a//b/" and "/a/b" are the
  // same file and must hit the same dirty buffer.
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it != write_buffers_.end()) {
    it->second.content = content;
    return Status::OK();
  }
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  if (node.view.attrs.is_dir()) {
    return Status::InvalidArgument("cannot Write a directory");
  }
  if (!fs::Allows(node.view.attrs, principal_, fs::Access::kWrite)) {
    return Status::PermissionDenied("no write permission");
  }
  if (!node.view.CanWriteData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DSK");
  }
  write_buffers_[norm] = WriteBuffer{node.ref.inode, content};
  return Status::OK();
}

Status SharoesClient::FlushBuffer(const std::string& path, WriteBuffer* buf) {
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  if (!node.view.CanWriteData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DSK");
  }
  // Lazy revocation: a pending key means this writer performs the
  // rotation — new data goes out under dek_next (and every block must be
  // re-encrypted, so block-level diffing is disabled for that flush).
  const bool key_rotated = node.view.dek_next.has_value();
  const crypto::SymmetricKey& dek =
      key_rotated ? *node.view.dek_next : *node.view.dek;
  const Bytes& content = buf->content;
  fs::InodeNum inode = buf->inode;

  // The paper divides files into blocks precisely so a write does not
  // re-encrypt the whole file (§II-B). When the previous version is in
  // the local cache, only changed blocks are re-encrypted and shipped.
  // Diff only when keys did not rotate and the file did not shrink.
  const size_t bs = options_.block_size;
  std::optional<std::map<uint32_t, ObjectCodec::KeptBlock>> kept;
  auto old_desc = cache_.Get<DataDescriptor>(DataCacheKey(inode, 0));
  if (old_desc != nullptr && !key_rotated &&
      1 + ChunkCount(content.size(), bs) >= old_desc->block_count) {
    kept.emplace();
    for (uint32_t i = 1; i < old_desc->block_count; ++i) {
      // A kept block's cached tag goes into the new descriptor's root,
      // which must commit to every chunk block, kept or rewritten.
      auto old = cache_.Get<OpenedBlock>(DataCacheKey(inode, i));
      auto [begin, end] = ChunkRange(i - 1, content.size(), bs);
      if (old != nullptr &&
          std::equal(old->chunk.begin(), old->chunk.end(),
                     content.begin() + begin, content.begin() + end)) {
        (*kept)[i] = {old_desc->GenOfBlock(i), old->tag};
      }
    }
  }
  std::vector<ssp::Request> puts;
  SHAROES_ASSIGN_OR_RETURN(
      ObjectCodec::RenderedFile file,
      RenderFileWrite(inode, content, dek, *node.view.dsk,
                      node.view.dek_gen + (key_rotated ? 1 : 0),
                      kept.has_value() ? &*kept : nullptr, &puts));
  return CommitFileWrite(inode, std::move(file), std::move(puts));
}

Result<ObjectCodec::RenderedFile> SharoesClient::RenderFileWrite(
    fs::InodeNum inode, const Bytes& content, const crypto::SymmetricKey& dek,
    const crypto::SigningKey& dsk, uint32_t key_gen,
    const std::map<uint32_t, ObjectCodec::KeptBlock>* kept,
    std::vector<ssp::Request>* puts) {
  SHAROES_ASSIGN_OR_RETURN(uint64_t write_gen, NextWriteGen(inode));
  // Without a diff basis the old block set goes first (it may be longer),
  // unless the inode has none: a file this client created and never
  // wrote, with no batch of it dropped (one may have been applied).
  if (kept == nullptr && !versions_.Unwritten(inode)) {
    puts->push_back(ssp::Request::DeleteInodeData(inode));
  }
  return codec_.RenderFile(inode, content, options_.block_size,
                           ObjectCodec::DataBlockHeader{key_gen, write_gen},
                           dek, dsk, kept, puts);
}

Status SharoesClient::CommitFileWrite(fs::InodeNum inode,
                                      ObjectCodec::RenderedFile file,
                                      std::vector<ssp::Request> puts) {
  // Cached before the batch ships, so a failed batch's SettleBatch takes
  // the blocks back out with the rest of the inode.
  versions_.Pend(inode, file.desc.write_gen, file.desc.tag_root);
  cache_.Put(DataCacheKey(inode, 0), std::move(file.desc),
             file.desc_wire_size);
  for (ObjectCodec::SealedBlock& b : file.sealed) {
    OpenedBlock sealed;
    sealed.chunk = std::move(b.plaintext);
    sealed.tag = std::move(b.tag);
    sealed.wire_size = b.wire_size;
    cache_.Put(DataCacheKey(inode, b.index), std::move(sealed), b.wire_size);
  }
  return ExecuteBatch(std::move(puts));
}

Result<uint64_t> SharoesClient::NextWriteGen(fs::InodeNum inode) {
  if (!versions_.MustPeek(inode)) return versions_.Next(inode, 0);
  // Unknown history (overwrite of a never-read file), or a dropped batch
  // that the store may hold: peek the stored header so generations stay
  // monotonic for other clients. The peek is a read, so its barrier
  // replays a kept stage first.
  // Only a real kNotFound means "never written": a transient failure
  // starting over at generation 1 would trip other clients' rollback
  // detection, so it surfaces and the caller retries.
  Result<Bytes> wire = Get(ssp::Request::GetData(inode, 0), "data block 0");
  if (wire.status().IsNotFound()) return versions_.Next(inode, 0);
  SHAROES_RETURN_IF_ERROR(wire.status());
  SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h,
                           ObjectCodec::PeekDataHeader(*wire));
  return versions_.Next(inode, h.write_gen);
}

Status SharoesClient::Close(const std::string& path) {
  OpScope span(this, "Close");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  Status s = Status::OK();
  if (it != write_buffers_.end()) {
    s = FlushBuffer(path, &it->second);
    write_buffers_.erase(it);
  }
  // Close is a durability point: whatever the write-behind layer staged
  // (this file's blocks, and any earlier logical ops sharing the batch)
  // ships now, so a Close that returned OK means the SSP acked the data.
  Status flushed = FlushPendingWrites();
  return s.ok() ? flushed : s;
}

Status SharoesClient::Chmod(const std::string& path, fs::Mode mode) {
  OpScope span(this, "Chmod");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  fs::InodeAttrs attrs = node.view.attrs;
  if (uid_ != attrs.owner) {
    return Status::PermissionDenied("only the owner may chmod");
  }
  if (!ModeSupported(attrs.type, mode)) {
    return Status::Unsupported("mode " + mode.ToString() +
                               " is not representable for a " +
                               fs::FileTypeName(attrs.type));
  }
  SHAROES_ASSIGN_OR_RETURN(ObjectKeyBundle bundle, node.view.ToBundle());

  // Which non-owner CAPs lose access? Their holders may have cached the
  // keys, so revocation requires rotation (paper §IV-A.1).
  OwnershipInfo old_info = OwnershipInfo::FromAttrs(attrs);
  fs::InodeAttrs new_attrs = attrs;
  new_attrs.mode = mode;
  OwnershipInfo new_info = OwnershipInfo::FromAttrs(new_attrs);
  std::vector<ReplicaSpec> old_specs =
      ReplicasFor(old_info, options_.scheme, *identity_);
  std::vector<ReplicaSpec> new_specs =
      ReplicasFor(new_info, options_.scheme, *identity_);
  bool lost_read = false, lost_write = false, dir_weakened = false;
  for (const ReplicaSpec& old_spec : old_specs) {
    if (old_spec.owner) continue;
    CapFields old_fields = old_spec.Fields(attrs.type);
    CapFields new_fields;
    for (const ReplicaSpec& ns : new_specs) {
      if (ns.selector == old_spec.selector) {
        new_fields = ns.Fields(attrs.type);
        break;
      }
    }
    if (old_fields.can_read_data() && !new_fields.can_read_data()) {
      lost_read = true;
    }
    if (old_fields.can_write_data() && !new_fields.can_write_data()) {
      lost_write = true;
    }
    if (static_cast<int>(new_fields.table_view) <
        static_cast<int>(old_fields.table_view)) {
      // Coarse "weaker view" check: kNone < kNamesOnly < kFull; exec-only
      // transitions are handled by the read/write checks above.
      dir_weakened = true;
    }
  }

  // For directories, fetch the master with the *old* keys before any
  // rotation.
  StoredMaster master;
  if (attrs.type == fs::FileType::kDirectory) {
    SHAROES_ASSIGN_OR_RETURN(master, FetchMaster(node, bundle));
  }

  std::vector<ssp::Request> batch;
  std::optional<crypto::SymmetricKey> dek_next = node.view.dek_next;
  uint32_t dek_gen = node.view.dek_gen;
  bool revoke = lost_read || lost_write;
  std::optional<ObjectCodec::RenderedFile> rewrite;
  if (revoke && attrs.type == fs::FileType::kFile) {
    if (options_.revocation == RevocationMode::kImmediate) {
      // Re-encrypt the file under fresh keys right now: the same write a
      // flush performs, with the rotated keys and no kept blocks.
      SHAROES_ASSIGN_OR_RETURN(Bytes content, FetchFileContent(node));
      bundle.dek = engine_->NewSymmetricKey();
      if (lost_write) bundle.data = engine_->NewSigningKeyPair();
      dek_gen += 1;
      dek_next.reset();
      SHAROES_ASSIGN_OR_RETURN(
          rewrite, RenderFileWrite(attrs.inode, content, bundle.dek,
                                   bundle.data.sign, dek_gen,
                                   /*kept=*/nullptr, &batch));
    } else if (!dek_next.has_value()) {
      // Lazy: record the next key; the next writer rotates.
      dek_next = engine_->NewSymmetricKey();
    }
  }
  if ((revoke || dir_weakened) && attrs.type == fs::FileType::kDirectory) {
    // Rotate every table key; copies are rebuilt below under new keys
    // (this also rotates the exec-only per-name derivations).
    for (auto& [sel, key] : bundle.table_keys) {
      (void)sel;
      key = engine_->NewSymmetricKey();
    }
  }

  // Rebuild every metadata replica with the new mode (selectors and MEKs
  // are class-stable, so parent rows and superblocks stay valid).
  codec_.RenderReplicas(new_attrs, new_specs, bundle, &batch, dek_gen,
                        dek_next);
  // Directories: re-render the tables (view kinds / keys may have changed).
  if (attrs.type == fs::FileType::kDirectory) {
    WriterDirContext ctx;
    ctx.node = node;
    ctx.node.view.attrs = new_attrs;
    ctx.bundle = bundle;
    ctx.ownership = new_info;
    ctx.master = std::move(master);
    SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch, nullptr));
  }
  SHAROES_RETURN_IF_ERROR(
      rewrite.has_value()
          ? CommitFileWrite(attrs.inode, std::move(*rewrite), std::move(batch))
          : ExecuteBatch(std::move(batch)));
  InvalidateInode(attrs.inode);
  // A revocation or rekey never waits in the stage; a widening chmod
  // stages like a create.
  return revoke || dir_weakened ? FlushPendingWrites() : Status::OK();
}

Status SharoesClient::RemoveObject(const std::string& path,
                                   fs::FileType type) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Rmdir" : "Unlink");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(WriterDirContext ctx, LoadDirForWrite(sp.parent));
  const MasterEntry* entry = ctx.master.table.Find(sp.name);
  if (entry == nullptr) return Status::NotFound("'" + path + "' not found");
  if (entry->child.type != type) {
    return type == fs::FileType::kDirectory
               ? Status::InvalidArgument("'" + path + "' is not a directory")
               : Status::InvalidArgument("'" + path + "' is a directory");
  }
  fs::InodeNum child_inode = entry->inode;
  if (type == fs::FileType::kDirectory) {
    // rmdir requires the directory to be empty. We verify through our own
    // CAP on the child; a caller whose CAP hides the table cannot prove
    // emptiness and is refused (documented deviation, DESIGN.md).
    SHAROES_ASSIGN_OR_RETURN(Node child, ResolvePath(path));
    auto table = FetchTable(child, nullptr);
    if (!table.ok()) {
      return Status::PermissionDenied(
          "cannot verify directory is empty through this CAP");
    }
    size_t entries = 0;
    for (const auto& bucket : table->buckets) {
      entries += bucket->names.size() + bucket->exec_rows.size();
    }
    if (entries > 0) {
      return Status::FailedPrecondition("directory not empty");
    }
  }
  SHAROES_RETURN_IF_ERROR(ctx.master.table.Remove(sp.name));
  std::vector<ssp::Request> batch;
  const std::vector<std::string> changed = {sp.name};
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch, &changed));
  // One delete takes the child's replicas, table objects and split
  // blocks; one more its data.
  batch.push_back(ssp::Request::DeleteInodeMetadata(child_inode));
  batch.push_back(ssp::Request::DeleteInodeData(child_inode));
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  InvalidateInode(child_inode, /*keep_candidates=*/false);
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  write_buffers_.erase(norm);
  // A removal ships now, so its bytes never bill the next op's flush.
  return FlushPendingWrites();
}

Status SharoesClient::Rename(const std::string& from,
                             const std::string& to) {
  OpScope span(this, "Rename");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent src, fs::SplitParentName(from));
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent dst, fs::SplitParentName(to));
  // Compare canonical spellings: "/a//b" and "/a/b" are the same path, and
  // the prefix test below only works on canonical forms.
  SHAROES_ASSIGN_OR_RETURN(std::string nfrom, NormalizePath(from));
  SHAROES_ASSIGN_OR_RETURN(std::string nto, NormalizePath(to));
  // Moving a directory under itself would orphan the subtree.
  if (nto.size() > nfrom.size() && nto.compare(0, nfrom.size(), nfrom) == 0 &&
      nto[nfrom.size()] == '/') {
    return Status::InvalidArgument("cannot move a directory into itself");
  }
  if (nfrom == nto) return Status::OK();

  SHAROES_ASSIGN_OR_RETURN(WriterDirContext src_ctx,
                           LoadDirForWrite(src.parent));
  MasterEntry* entry = src_ctx.master.table.Find(src.name);
  if (entry == nullptr) return Status::NotFound("'" + from + "' not found");

  if (src.parent == dst.parent) {
    // Same-directory rename: one master edit, one table render.
    if (src_ctx.master.table.Find(dst.name) != nullptr) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    entry->name = dst.name;
    std::vector<ssp::Request> batch;
    const std::vector<std::string> changed = {src.name, dst.name};
    SHAROES_RETURN_IF_ERROR(RenderDirTables(src_ctx, &batch, &changed));
    SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  } else {
    // Cross-directory move. The child's replicas, selectors and MEKs are
    // all parent-independent, so only the two masters (and their rendered
    // copies) change.
    SHAROES_ASSIGN_OR_RETURN(WriterDirContext dst_ctx,
                             LoadDirForWrite(dst.parent));
    if (dst_ctx.node.ref.inode == entry->inode) {
      return Status::InvalidArgument("cannot move a directory into itself");
    }
    if (dst_ctx.master.table.Find(dst.name) != nullptr) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    MasterEntry moved = *entry;
    moved.name = dst.name;
    SHAROES_RETURN_IF_ERROR(src_ctx.master.table.Remove(src.name));
    SHAROES_RETURN_IF_ERROR(dst_ctx.master.table.Add(std::move(moved)));
    std::vector<ssp::Request> batch;
    const std::vector<std::string> src_changed = {src.name};
    const std::vector<std::string> dst_changed = {dst.name};
    SHAROES_RETURN_IF_ERROR(RenderDirTables(src_ctx, &batch, &src_changed));
    SHAROES_RETURN_IF_ERROR(RenderDirTables(dst_ctx, &batch, &dst_changed));
    SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  }
  // Any buffered writes follow the move — the file itself, and when a
  // directory moves, every buffered file underneath it (their old paths
  // no longer resolve, so a stranded buffer would flush into NotFound or,
  // worse, a recreated file at the old path).
  std::vector<std::pair<std::string, WriteBuffer>> moved_bufs;
  for (auto it = write_buffers_.begin(); it != write_buffers_.end();) {
    const std::string& key = it->first;
    bool exact = key == nfrom;
    bool under = key.size() > nfrom.size() &&
                 key.compare(0, nfrom.size(), nfrom) == 0 &&
                 key[nfrom.size()] == '/';
    if (exact || under) {
      moved_bufs.emplace_back(nto + key.substr(nfrom.size()),
                              std::move(it->second));
      it = write_buffers_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [new_key, buf] : moved_bufs) {
    write_buffers_[new_key] = std::move(buf);
  }
  return Status::OK();
}

Status SharoesClient::RefreshDir(const std::string& path) {
  OpScope span(this, "RefreshDir");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(Node node, ResolvePath(path));
  if (!node.view.attrs.is_dir()) {
    return Status::InvalidArgument("'" + path + "' is not a directory");
  }
  // Owner bundle preferred (full); plain writers can refresh too.
  ObjectKeyBundle bundle;
  if (auto owner_bundle = node.view.ToBundle(); owner_bundle.ok()) {
    bundle = std::move(*owner_bundle);
  } else {
    SHAROES_ASSIGN_OR_RETURN(bundle, BundleForWriter(node.view));
  }
  WriterDirContext ctx;
  ctx.ownership = OwnershipInfo::FromAttrs(node.view.attrs);
  SHAROES_ASSIGN_OR_RETURN(ctx.master, FetchMaster(node, bundle));
  ctx.node = std::move(node);
  ctx.bundle = std::move(bundle);
  std::vector<ssp::Request> batch;
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch, nullptr));
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  return FlushPendingWrites();
}

Status SharoesClient::Unlink(const std::string& path) {
  return RemoveObject(path, fs::FileType::kFile);
}

Status SharoesClient::Rmdir(const std::string& path) {
  return RemoveObject(path, fs::FileType::kDirectory);
}

}  // namespace sharoes::core
