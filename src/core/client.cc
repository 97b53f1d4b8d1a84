#include "core/client.h"

#include <algorithm>

#include "core/sharded_channel.h"
#include "crypto/merkle.h"
#include "fs/path.h"
#include "obs/span.h"
#include "obs/trace.h"

namespace sharoes::core {

namespace {

/// Maps a non-ok read sub-response to the caller-facing Status: kNotFound
/// stays NotFound (the object genuinely is not at the SSP), kError means
/// the sub-op was *not executed* and becomes Unavailable (transient,
/// retryable), and anything else from a well-formed get is an I/O error.
Status ReadSubError(const std::string& what, ssp::RespStatus status) {
  switch (status) {
    case ssp::RespStatus::kNotFound:
      return Status::NotFound(what + " not at SSP");
    case ssp::RespStatus::kError:
      return Status::Unavailable(what + ": SSP reported transient error");
    default:
      return Status::IoError(what + ": SSP answered " +
                             ssp::RespStatusName(status));
  }
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
      neg_cache_(options.negative_dentry_bytes, nullptr, "client.dentry.neg"),
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

namespace {
/// True iff the request would mutate the store — the shapes that may
/// bypass the read barrier below (a flush's own kBatch is all-mutating).
bool RequestMutates(const ssp::Request& req) {
  if (req.op == ssp::OpCode::kBatch) {
    for (const ssp::Request& sub : req.batch) {
      if (ssp::IsMutatingOp(sub.op)) return true;
    }
    return false;
  }
  return ssp::IsMutatingOp(req.op);
}
}  // namespace

Result<ssp::Response> SharoesClient::Rpc(const ssp::Request& req) {
  // Read barrier for the write-behind stage: before any read reaches the
  // wire, staged mutations must land so the SSP answers reflect this
  // client's own writes (read-your-writes). Mutating requests skip it —
  // ordering relative to the stage is preserved by staging them too (or,
  // for the flush batch itself, by flushing_pending_).
  if (!flushing_pending_ && !pending_writes_.empty() &&
      !RequestMutates(req)) {
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

Result<std::string> SharoesClient::NormalizePath(const std::string& path) {
  SHAROES_ASSIGN_OR_RETURN(std::vector<std::string> comps,
                           fs::SplitPath(path));
  return fs::JoinPath(comps);
}

uint32_t SharoesClient::InitialWindowBlocks() const {
  // Before the descriptor is fetched the block count is unknown, so the
  // speculative first window stays small: big enough to cover most files
  // in one round trip, small enough that a one-block file wastes only a
  // few tiny kNotFound sub-responses.
  constexpr uint32_t kInitialReadWindow = 4;
  size_t window = std::max<size_t>(options_.readahead_blocks, 1);
  return static_cast<uint32_t>(
      std::min<size_t>(window, kInitialReadWindow));
}

void SharoesClient::ChargeClientOverhead() {
  if (engine_->clock() != nullptr) {
    engine_->clock()->AdvanceMs(options_.client_overhead_ms,
                                CostCategory::kOther);
  }
}

std::string SharoesClient::ViewCacheKey(fs::InodeNum inode,
                                        Selector sel) const {
  return "m|" + std::to_string(inode) + "|" + std::to_string(sel);
}

std::string SharoesClient::DataCacheKey(fs::InodeNum inode, uint32_t block) {
  return "d|" + std::to_string(inode) + "|" + std::to_string(block);
}

std::string SharoesClient::TagCacheKey(fs::InodeNum inode, uint32_t block) {
  return "e|" + std::to_string(inode) + "|" + std::to_string(block);
}

std::string SharoesClient::TableCacheKey(fs::InodeNum inode, Selector sel) {
  return "t|" + std::to_string(inode) + "|" + std::to_string(sel);
}

std::string SharoesClient::MasterCacheKey(fs::InodeNum inode) {
  return "M|" + std::to_string(inode);
}

std::string SharoesClient::UserSplitCacheKey(fs::InodeNum inode,
                                             fs::UserId uid) {
  return "u|" + std::to_string(inode) + "|" + std::to_string(uid);
}

std::string SharoesClient::GroupSplitCacheKey(fs::InodeNum inode,
                                              uint32_t id) {
  return "g|" + std::to_string(inode) + "|" + std::to_string(id);
}

std::string SharoesClient::NegDentryCacheKey(fs::InodeNum dir_inode,
                                             const std::string& name) {
  return "n|" + std::to_string(dir_inode) + "|" + name;
}

void SharoesClient::InvalidateInode(fs::InodeNum inode) {
  std::string id = std::to_string(inode);
  cache_.ErasePrefix("m|" + id + "|");
  cache_.ErasePrefix("t|" + id + "|");
  cache_.ErasePrefix("d|" + id + "|");
  cache_.ErasePrefix("e|" + id + "|");
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
  if (conn_ == nullptr) {
    // Cluster deployment: the channel comes from the config file, not
    // the constructor. Built here (not in the constructor) because
    // loading the config and dialing daemons can fail, and Mount is the
    // client's canonical can-fail entry point.
    if (options_.cluster.empty()) {
      return Status::InvalidArgument(
          "no SSP channel and no ClientOptions::cluster config");
    }
    SHAROES_ASSIGN_OR_RETURN(
        owned_conn_,
        ShardedChannel::Open(options_.cluster,
                             ShardedChannelOptions::FromRetry(
                                 options_.transport_retry,
                                 options_.transport_timeouts)));
    conn_ = owned_conn_.get();
  }
  principal_ = identity_->PrincipalOf(uid_);
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::GetSuperblock(uid_)));
  if (!resp.ok()) {
    return Status::NotFound("no superblock for user " + std::to_string(uid_));
  }
  SHAROES_ASSIGN_OR_RETURN(superblock_,
                           codec_.DecodeSuperblock(user_priv_, resp.payload));
  mounted_ = true;
  return Status::OK();
}

Result<MetadataView> SharoesClient::DecodeAndCacheView(const PlainRef& ref,
                                                       const Bytes& payload) {
  SHAROES_ASSIGN_OR_RETURN(
      MetadataView view,
      codec_.DecodeMetadataReplica(ref.inode, ref.selector, payload,
                                   ref.mek, ref.mvk));
  cache_.Put(ViewCacheKey(ref.inode, ref.selector), view, payload.size());
  return view;
}

Result<MetadataView> SharoesClient::FetchView(const PlainRef& ref) {
  std::string key = ViewCacheKey(ref.inode, ref.selector);
  if (auto cached = cache_.Get<MetadataView>(key)) return *cached;
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::GetMetadata(ref.inode, ref.selector)));
  if (!resp.ok()) {
    return Status::NotFound("metadata " + std::to_string(ref.inode) +
                            " replica " + std::to_string(ref.selector) +
                            " not at SSP");
  }
  return DecodeAndCacheView(ref, resp.payload);
}

Result<SharoesClient::Node> SharoesClient::FetchNode(const PlainRef& ref) {
  SHAROES_ASSIGN_OR_RETURN(MetadataView view, FetchView(ref));
  return Node{ref, std::move(view)};
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
  if (resp.status == ssp::RespStatus::kError) {
    // The batch was not executed; all sub-ops are idempotent reads, so
    // re-issuing is always safe (RetryingConnection does exactly that).
    return Status::Unavailable("SSP reported transient error for read batch");
  }
  if (!resp.ok()) {
    return Status::IoError(std::string("SSP rejected read batch of ") +
                           std::to_string(n) + " gets (" +
                           ssp::RespStatusName(resp.status) + ")");
  }
  if (resp.batch.size() != n) {
    return Status::IoError("SSP answered " +
                           std::to_string(resp.batch.size()) +
                           " sub-responses to a read batch of " +
                           std::to_string(n));
  }
  return std::move(resp.batch);
}

void SharoesClient::CacheFetchedDataBlocks(const Node& node,
                                           const std::vector<uint32_t>& indices,
                                           const ssp::Response* resps) {
  if (!node.view.CanReadData()) return;
  fs::InodeNum inode = node.ref.inode;
  auto key_for = [&](uint32_t key_gen) -> Result<crypto::SymmetricKey> {
    if (key_gen == node.view.dek_gen) return *node.view.dek;
    if (key_gen == node.view.dek_gen + 1 && node.view.dek_next.has_value()) {
      return *node.view.dek_next;
    }
    return Status::PermissionDenied("rotated key");
  };
  // The descriptor (in block 0) gates everything else: without it the
  // per-block generations cannot be validated against anything.
  std::optional<DataDescriptor> desc;
  auto desc_from_plain = [&](const Bytes& plain) {
    BinaryReader r(plain);
    auto d = DataDescriptor::ReadFrom(&r);
    if (d.ok()) desc = *d;
  };
  for (size_t j = 0; j < indices.size(); ++j) {
    if (indices[j] != 0) continue;
    const ssp::Response& r = resps[j];
    if (!r.ok()) return;  // No block 0, nothing to validate against.
    auto h = ObjectCodec::PeekDataHeader(r.payload);
    if (!h.ok()) return;
    auto dek = key_for(h->key_gen);
    if (!dek.ok()) return;
    auto plain = codec_.DecodeDataBlock(inode, 0, r.payload, *dek,
                                        *node.view.dvk);
    if (!plain.ok()) return;
    cache_.Put(DataCacheKey(inode, 0), *plain, r.payload.size());
    desc_from_plain(*plain);
  }
  if (!desc.has_value()) {
    if (auto cached0 = cache_.Get<Bytes>(DataCacheKey(inode, 0))) {
      desc_from_plain(*cached0);
    }
  }
  if (!desc.has_value()) return;
  for (size_t j = 0; j < indices.size(); ++j) {
    uint32_t i = indices[j];
    if (i == 0 || i >= desc->block_count) continue;  // Done / past EOF.
    const ssp::Response& r = resps[j];
    if (!r.ok()) continue;
    auto h = ObjectCodec::PeekDataHeader(r.payload);
    if (!h.ok() || h->write_gen != desc->GenOfBlock(i)) continue;
    auto dek = key_for(h->key_gen);
    if (!dek.ok()) continue;
    auto plain =
        codec_.DecodeDataBlock(inode, i, r.payload, *dek, *node.view.dvk);
    if (!plain.ok()) continue;
    auto tag = ObjectCodec::PeekDataTag(r.payload);
    if (!tag.ok()) continue;
    // The tag is the block's Merkle leaf: cache it alongside the
    // plaintext so a later root check over cached blocks needs no
    // re-fetch (FetchFileContent counts a block as cached only when
    // both entries are present).
    cache_.Put(DataCacheKey(inode, i), *plain, r.payload.size());
    cache_.Put(TagCacheKey(inode, i), *tag, tag->size());
  }
}

Result<SharoesClient::Node> SharoesClient::FetchNodeBatched(
    const PlainRef& ref, bool want_table, bool want_data) {
  if (!options_.batch_reads) return FetchNode(ref);
  std::string view_key = ViewCacheKey(ref.inode, ref.selector);
  std::string table_key = TableCacheKey(ref.inode, ref.selector);
  bool fetch_view = !cache_.Contains(view_key);
  bool fetch_table = want_table && !cache_.Contains(table_key);
  std::vector<uint32_t> data_blocks;
  if (want_data) {
    uint32_t window = InitialWindowBlocks();
    for (uint32_t i = 0; i < window; ++i) {
      if (!cache_.Contains(DataCacheKey(ref.inode, i)) ||
          (i > 0 && !cache_.Contains(TagCacheKey(ref.inode, i)))) {
        data_blocks.push_back(i);
      }
    }
  }
  if (!fetch_view && !fetch_table && data_blocks.empty()) {
    return FetchNode(ref);  // Fully cached.
  }
  std::vector<ssp::Request> gets;
  if (fetch_view) {
    gets.push_back(ssp::Request::GetMetadata(ref.inode, ref.selector));
  }
  if (fetch_table) {
    gets.push_back(ssp::Request::GetMetadata(ref.inode,
                                             TableSelector(ref.selector)));
  }
  for (uint32_t b : data_blocks) {
    gets.push_back(ssp::Request::GetData(ref.inode, b));
  }
  SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                           MultiGet(std::move(gets)));
  size_t idx = 0;
  MetadataView view;
  if (fetch_view) {
    const ssp::Response& r = resps[idx++];
    if (r.status == ssp::RespStatus::kNotFound) {
      return Status::NotFound("metadata " + std::to_string(ref.inode) +
                              " replica " + std::to_string(ref.selector) +
                              " not at SSP");
    }
    if (!r.ok()) {
      return ReadSubError("metadata " + std::to_string(ref.inode), r.status);
    }
    SHAROES_ASSIGN_OR_RETURN(view, DecodeAndCacheView(ref, r.payload));
  } else {
    SHAROES_ASSIGN_OR_RETURN(view, FetchView(ref));  // Cached.
  }
  Node node{ref, std::move(view)};
  if (fetch_table) {
    const ssp::Response& r = resps[idx++];
    // Best-effort: only a directory whose CAP exposes the table keys can
    // use the prefetched copy; anything else is dropped and FetchTable
    // (if ever called) re-fetches and reports authoritatively.
    if (r.ok() && node.view.attrs.is_dir() &&
        node.view.dek.has_value() && node.view.dvk.has_value()) {
      auto table = codec_.DecodeTableCopy(ref.inode, ref.selector, r.payload,
                                          *node.view.dek, *node.view.dvk);
      if (table.ok()) {
        auto sp = std::make_shared<const DecodedTable>(std::move(*table));
        cache_.PutPtr(table_key, sp, r.payload.size());
      }
    }
  }
  if (!data_blocks.empty()) {
    CacheFetchedDataBlocks(node, data_blocks, &resps[idx]);
  }
  return node;
}

Result<std::shared_ptr<const DecodedTable>> SharoesClient::FetchTable(
    const Node& dir) {
  if (!dir.view.attrs.is_dir()) {
    return Status::InvalidArgument("not a directory");
  }
  if (!dir.view.dek.has_value() || !dir.view.dvk.has_value()) {
    return Status::PermissionDenied("no table access on directory");
  }
  std::string key = TableCacheKey(dir.ref.inode, dir.ref.selector);
  if (auto cached = cache_.Get<DecodedTable>(key)) return cached;
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::GetMetadata(
          dir.ref.inode, TableSelector(dir.ref.selector))));
  if (!resp.ok()) return Status::NotFound("table copy not at SSP");
  SHAROES_ASSIGN_OR_RETURN(
      DecodedTable table,
      codec_.DecodeTableCopy(dir.ref.inode, dir.ref.selector, resp.payload,
                             *dir.view.dek, *dir.view.dvk));
  auto sp = std::make_shared<const DecodedTable>(std::move(table));
  cache_.PutPtr(key, sp, resp.payload.size());
  return sp;
}

Result<GroupSecret> SharoesClient::FetchGroupSecret(fs::GroupId gid) {
  auto it = group_secrets_.find(gid);
  if (it != group_secrets_.end()) return it->second;
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::GetGroupKey(gid, uid_)));
  if (!resp.ok()) {
    return Status::PermissionDenied("no group key block for group " +
                                    std::to_string(gid) + " user " +
                                    std::to_string(uid_));
  }
  SHAROES_ASSIGN_OR_RETURN(
      GroupSecret secret, codec_.DecodeGroupKeyBlock(user_priv_,
                                                     resp.payload));
  group_secrets_[gid] = secret;
  return secret;
}

Result<PlainRef> SharoesClient::ResolveRowRef(const RowRef& row) {
  if (row.kind == RowRef::Kind::kPlain) return row.plain;
  // Split point. A per-user block takes precedence (it exists exactly for
  // readers whose class diverges from the shared group block — e.g. the
  // child's owner, who may also be a group member); group members without
  // one fall back to the shared group block.
  std::string ukey = UserSplitCacheKey(row.inode, uid_);
  if (auto cached = cache_.Get<PlainRef>(ukey)) return *cached;
  std::string gkey = GroupSplitCacheKey(row.inode, row.gid);
  if (row.has_group_block && principal_.MemberOf(row.gid)) {
    if (auto cached = cache_.Get<PlainRef>(gkey)) return *cached;
  }
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::GetUserMetadata(row.inode, uid_)));
  if (resp.ok()) {
    SHAROES_ASSIGN_OR_RETURN(
        PlainRef ref, codec_.DecodeUserRefBlock(user_priv_, resp.payload));
    cache_.Put(ukey, ref, resp.payload.size());
    return ref;
  }
  if (row.has_group_block && principal_.MemberOf(row.gid)) {
    SHAROES_ASSIGN_OR_RETURN(
        ssp::Response gresp,
        Rpc(ssp::Request::GetUserMetadata(row.inode,
                                          GroupBlockKey(row.gid))));
    if (!gresp.ok()) return Status::NotFound("group split block missing");
    SHAROES_ASSIGN_OR_RETURN(GroupSecret secret, FetchGroupSecret(row.gid));
    SHAROES_ASSIGN_OR_RETURN(
        PlainRef ref,
        codec_.DecodeGroupRefBlock(secret.private_key, gresp.payload));
    cache_.Put(gkey, ref, gresp.payload.size());
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
  bool neg_cache_on = options_.negative_dentry_bytes > 0;
  for (size_t i = 0;; ++i) {
    const bool last = i == comps.size();
    // A remembered negative dentry short-circuits after the permission
    // checks below — and also tells the coalesced fetch not to pay bytes
    // for a table it will not consult.
    bool neg = false;
    if (!last && neg_cache_on) {
      neg = neg_cache_.Get<bool>(NegDentryCacheKey(ref.inode, comps[i])) !=
            nullptr;
    }
    bool want_table = !last && !neg;
    bool want_data = last && intent == ReadIntent::kData;
    if (last && intent == ReadIntent::kTable) want_table = true;
    SHAROES_ASSIGN_OR_RETURN(node,
                             FetchNodeBatched(ref, want_table, want_data));
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
    SHAROES_ASSIGN_OR_RETURN(auto table, FetchTable(node));
    RowRef row;
    switch (table->view) {
      case TableView::kFull: {
        auto it = table->refs.find(comp);
        if (it == table->refs.end()) {
          if (neg_cache_on) {
            std::string nkey = NegDentryCacheKey(ref.inode, comp);
            neg_cache_.Put(nkey, true, nkey.size() + 1);
          }
          return Status::NotFound("no entry named '" + comp + "'");
        }
        row = it->second;
        break;
      }
      case TableView::kExecOnly: {
        auto looked = codec_.ExecOnlyLookup(*table, *node.view.dek, comp);
        if (!looked.ok()) {
          if (neg_cache_on && looked.status().IsNotFound()) {
            std::string nkey = NegDentryCacheKey(ref.inode, comp);
            neg_cache_.Put(nkey, true, nkey.size() + 1);
          }
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
    SHAROES_ASSIGN_OR_RETURN(ref, ResolveRowRef(row));
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
    } else if (auto cached0 =
                   cache_.Get<Bytes>(DataCacheKey(node.ref.inode, 0))) {
      BinaryReader r(*cached0);
      auto desc = DataDescriptor::ReadFrom(&r);
      if (desc.ok()) attrs.size = desc->size;
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
  SHAROES_ASSIGN_OR_RETURN(auto table, FetchTable(node));
  if (table->view == TableView::kExecOnly ||
      table->view == TableView::kNone) {
    return Status::PermissionDenied("directory CAP does not permit listing");
  }
  return table->names;
}

ObjectKeyBundle SharoesClient::GenerateBundle(
    const OwnershipInfo& info, const std::vector<ReplicaSpec>& specs) {
  ObjectKeyBundle b;
  b.data = engine_->NewSigningKeyPair();
  b.meta = engine_->NewSigningKeyPair();
  for (const ReplicaSpec& spec : specs) {
    b.meks[spec.selector] = engine_->NewSymmetricKey();
  }
  if (info.type == fs::FileType::kFile) {
    b.dek = engine_->NewSymmetricKey();
  } else {
    for (const ReplicaSpec& spec : specs) {
      b.table_keys[spec.selector] = engine_->NewSymmetricKey();
    }
    b.table_keys[kMasterSelector] = engine_->NewSymmetricKey();
  }
  return b;
}

Status SharoesClient::ExecuteBatch(std::vector<ssp::Request> requests) {
  if (requests.empty()) return Status::OK();
  if (options_.write_batch_ops == 0 || flushing_pending_) {
    return ExecuteBatchNow(requests);
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
  if (requests.empty()) return Status::OK();
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
  // replay-safe for these idempotent sub-ops) keep the stage so the next
  // flush point retries; anything else resolves the ops' fate, so the
  // stage clears and the error surfaces exactly once.
  if (shipped.ok() ||
      !(shipped.IsUnavailable() || shipped.IsDeadlineExceeded())) {
    pending_writes_.clear();
    pending_write_bytes_ = 0;
  }
  return shipped;
}

Status SharoesClient::Fsync() {
  OpScope scope(this, "Fsync");
  return FlushPendingWrites();
}

Result<MasterTable> SharoesClient::FetchMaster(const Node& dir,
                                               const ObjectKeyBundle& bundle) {
  auto it = bundle.table_keys.find(kMasterSelector);
  if (it == bundle.table_keys.end()) {
    return Status::PermissionDenied("no master table key");
  }
  std::string key = MasterCacheKey(dir.ref.inode);
  if (auto cached = cache_.Get<MasterTable>(key)) return *cached;
  SHAROES_ASSIGN_OR_RETURN(
      ssp::Response resp,
      Rpc(ssp::Request::GetMetadata(dir.ref.inode,
                                    TableSelector(kMasterSelector))));
  if (!resp.ok()) return Status::NotFound("master table not at SSP");
  SHAROES_ASSIGN_OR_RETURN(
      MasterTable master,
      codec_.DecodeMasterTable(dir.ref.inode, resp.payload, it->second,
                               bundle.data.verify));
  cache_.Put(key, master, resp.payload.size());
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
  SHAROES_ASSIGN_OR_RETURN(MasterTable master, FetchMaster(node, bundle));
  WriterDirContext ctx;
  ctx.ownership = OwnershipInfo::FromAttrs(node.view.attrs);
  ctx.node = std::move(node);
  ctx.master = std::move(master);
  ctx.bundle = std::move(bundle);
  return ctx;
}

Status SharoesClient::RenderDirTables(const WriterDirContext& ctx,
                                      std::vector<ssp::Request>* out) {
  std::vector<ReplicaSpec> specs =
      ReplicasFor(ctx.ownership, options_.scheme, *identity_);
  std::vector<PendingSplitBlock> blocks;
  size_t my_copy_size = 0;
  std::vector<fs::UserId> my_universe;
  bool my_copy_full = false;
  for (const ReplicaSpec& spec : specs) {
    std::vector<fs::UserId> universe =
        UniverseOf(ctx.ownership, spec.selector, options_.scheme, *identity_);
    TableView view = spec.Fields(fs::FileType::kDirectory).table_view;
    SHAROES_ASSIGN_OR_RETURN(
        Bytes wire,
        codec_.EncodeTableCopy(ctx.node.ref.inode, spec.selector, view,
                               ctx.master, universe, ctx.bundle, &blocks));
    if (spec.selector == ctx.node.ref.selector) {
      my_copy_size = wire.size();
      my_universe = universe;
      my_copy_full = view == TableView::kFull;
    }
    out->push_back(ssp::Request::PutMetadata(
        ctx.node.ref.inode, TableSelector(spec.selector), std::move(wire)));
  }
  out->push_back(ssp::Request::PutMetadata(
      ctx.node.ref.inode, TableSelector(kMasterSelector),
      codec_.EncodeMasterTable(ctx.node.ref.inode, ctx.master, ctx.bundle)));
  for (PendingSplitBlock& b : blocks) {
    out->push_back(
        ssp::Request::PutUserMetadata(b.child_inode, b.id, std::move(b.wire)));
  }
  // Refresh our cached view of this directory: stale copies out, the
  // updated master and our own freshly rendered copy in (the paper's
  // client keeps the table it just modified in memory).
  std::string id = std::to_string(ctx.node.ref.inode);
  cache_.ErasePrefix("t|" + id + "|");
  // The directory's membership just changed: names that were absent may
  // exist now, so every negative dentry under it is stale.
  neg_cache_.ErasePrefix("n|" + id + "|");
  cache_.Put(MasterCacheKey(ctx.node.ref.inode), ctx.master,
             ctx.master.Serialize().size());
  if (my_copy_full) {
    auto decoded = codec_.RenderFullTableView(ctx.master, my_universe);
    if (decoded.ok()) {
      cache_.Put(TableCacheKey(ctx.node.ref.inode, ctx.node.ref.selector),
                 std::move(*decoded), my_copy_size);
    }
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
  if (ctx.master.Find(sp.name) != nullptr) {
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
  ObjectKeyBundle bundle = GenerateBundle(info, specs);

  // Batch 1: the child's metadata replicas (and, for directories, its
  // empty table copies) — the paper's "metadata send".
  std::vector<ssp::Request> batch1;
  for (const ReplicaSpec& spec : specs) {
    batch1.push_back(ssp::Request::PutMetadata(
        attrs.inode, spec.selector,
        codec_.EncodeMetadataReplica(spec, attrs, bundle)));
  }
  if (type == fs::FileType::kDirectory) {
    MasterTable empty;
    std::vector<PendingSplitBlock> blocks;
    for (const ReplicaSpec& spec : specs) {
      std::vector<fs::UserId> universe =
          UniverseOf(info, spec.selector, options_.scheme, *identity_);
      SHAROES_ASSIGN_OR_RETURN(
          Bytes wire, codec_.EncodeTableCopy(
                          attrs.inode, spec.selector,
                          spec.Fields(type).table_view, empty, universe,
                          bundle, &blocks));
      batch1.push_back(ssp::Request::PutMetadata(
          attrs.inode, TableSelector(spec.selector), std::move(wire)));
    }
    batch1.push_back(ssp::Request::PutMetadata(
        attrs.inode, TableSelector(kMasterSelector),
        codec_.EncodeMasterTable(attrs.inode, empty, bundle)));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch1)));

  // Batch 2: the parent's updated tables — the paper's "parent-dir send".
  MasterEntry entry;
  entry.name = sp.name;
  entry.inode = attrs.inode;
  entry.child = info;
  entry.mvk = bundle.meta.verify.Serialize();
  for (const auto& [sel, mek] : bundle.meks) {
    entry.meks[sel] = mek.Serialize();
  }
  SHAROES_RETURN_IF_ERROR(ctx.master.Add(std::move(entry)));
  std::vector<ssp::Request> batch2;
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch2));
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch2)));
  // The creator keeps its own view of the new object in memory, and
  // knows the file has never been written (write generation 0).
  freshness_[attrs.inode] = FreshnessRecord{0, {}};
  ReplicaSpec my_spec = SpecFor(info, principal_, options_.scheme);
  MetadataView my_view = ObjectCodec::BuildView(my_spec, attrs, bundle);
  cache_.Put(ViewCacheKey(attrs.inode, my_spec.selector), my_view,
             my_view.Serialize().size());
  if (type == fs::FileType::kDirectory) {
    // The creator also knows the new directory is empty: seed the master-
    // table cache so the first create inside it skips the fetch of a
    // table this client rendered moments ago.
    MasterTable empty;
    cache_.Put(MasterCacheKey(attrs.inode), empty,
               empty.Serialize().size());
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

Result<Bytes> SharoesClient::FetchFileContent(const Node& node) {
  if (!node.view.CanReadData()) {
    return Status::PermissionDenied("CAP does not expose DEK/DVK");
  }
  fs::InodeNum inode = node.ref.inode;

  // Select the data key for a block's recorded generation.
  auto key_for = [&](uint32_t key_gen) -> Result<crypto::SymmetricKey> {
    if (key_gen == node.view.dek_gen) return *node.view.dek;
    if (key_gen == node.view.dek_gen + 1 && node.view.dek_next.has_value()) {
      return *node.view.dek_next;  // Lazy-revocation rotation happened.
    }
    return Status::PermissionDenied(
        "data re-encrypted under a rotated key (access revoked)");
  };

  Bytes content;
  DataDescriptor desc;
  std::string key0 = DataCacheKey(inode, 0);
  if (auto cached = cache_.Get<Bytes>(key0)) {
    BinaryReader r(*cached);
    SHAROES_ASSIGN_OR_RETURN(desc, DataDescriptor::ReadFrom(&r));
    content = r.GetRaw(r.remaining());
  } else {
    // Cold block 0: fetch it — batched with an initial window of sibling
    // blocks when batching is on (the block count is still unknown, so
    // gets past EOF come back as harmless kNotFound sub-responses).
    std::vector<uint32_t> window = {0};
    if (options_.batch_reads) {
      uint32_t w = InitialWindowBlocks();
      for (uint32_t i = 1; i < w; ++i) {
        if (!cache_.Contains(DataCacheKey(inode, i)) ||
            !cache_.Contains(TagCacheKey(inode, i))) {
          window.push_back(i);
        }
      }
    }
    std::vector<ssp::Request> gets;
    gets.reserve(window.size());
    for (uint32_t b : window) gets.push_back(ssp::Request::GetData(inode, b));
    SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                             MultiGet(std::move(gets)));
    const ssp::Response& r0 = resps[0];
    if (r0.status == ssp::RespStatus::kNotFound) {
      return Bytes{};  // Never written: empty file.
    }
    if (!r0.ok()) {
      // A transient kError is NOT a missing block: surfacing it as
      // NotFound (or an empty file) would corrupt reads under fault
      // injection. It maps to Unavailable and is safe to retry.
      return ReadSubError("data block 0", r0.status);
    }
    SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h0,
                             ObjectCodec::PeekDataHeader(r0.payload));
    SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey dek, key_for(h0.key_gen));
    SHAROES_ASSIGN_OR_RETURN(
        Bytes plain0,
        codec_.DecodeDataBlock(inode, 0, r0.payload, dek, *node.view.dvk));
    cache_.Put(key0, plain0, r0.payload.size());
    BinaryReader r(plain0);
    SHAROES_ASSIGN_OR_RETURN(desc, DataDescriptor::ReadFrom(&r));
    content = r.GetRaw(r.remaining());
    if (window.size() > 1) {
      // Siblings from the same round trip: best-effort cache fill (the
      // strict loop below re-validates anything that failed here).
      std::vector<uint32_t> siblings(window.begin() + 1, window.end());
      CacheFetchedDataBlocks(node, siblings, &resps[1]);
    }
  }
  // Freshness (SUNDR-style rollback detection, paper §VIII): the write
  // generation this client has observed for an inode must never move
  // backwards. An SSP serving a stale-but-validly-signed version is
  // caught here.
  if (options_.track_freshness) {
    auto it = freshness_.find(inode);
    if (it != freshness_.end()) {
      if (desc.write_gen < it->second.write_gen) {
        return Status::Corruption(
            "rollback detected: write generation regressed");
      }
      // Same generation but a different tag root is SSP equivocation:
      // two distinct contents presented under one write generation.
      if (desc.write_gen == it->second.write_gen &&
          !it->second.tag_root.empty() &&
          !ConstantTimeEquals(desc.tag_root, it->second.tag_root)) {
        return Status::Corruption(
            "rollback detected: different content presented at the same "
            "write generation");
      }
    }
    freshness_[inode] = FreshnessRecord{desc.write_gen, desc.tag_root};
  }

  std::vector<Bytes> tail_tags;  // Merkle leaves: blocks 1..block_count-1.
  if (desc.block_count > 1) {
    tail_tags.resize(desc.block_count - 1);
    std::vector<uint32_t> missing;
    std::map<uint32_t, Bytes> chunks;
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      // A block counts as cached only when its AEAD tag is cached
      // alongside: the root check below needs every tail tag.
      auto cached = cache_.Get<Bytes>(DataCacheKey(inode, i));
      auto cached_tag = cache_.Get<Bytes>(TagCacheKey(inode, i));
      if (cached != nullptr && cached_tag != nullptr) {
        chunks[i] = *cached;
        tail_tags[i - 1] = *cached_tag;
        continue;
      }
      missing.push_back(i);
    }
    // Fetch the missing blocks in readahead windows (one batched round
    // trip per window) — or one RPC per block with batching off, the
    // pre-batching wire behaviour kept as the benchmark comparator.
    size_t window_size =
        options_.batch_reads ? std::max<size_t>(options_.readahead_blocks, 1)
                             : 1;
    for (size_t pos = 0; pos < missing.size(); pos += window_size) {
      size_t end = std::min(missing.size(), pos + window_size);
      std::vector<ssp::Request> gets;
      gets.reserve(end - pos);
      for (size_t j = pos; j < end; ++j) {
        gets.push_back(ssp::Request::GetData(inode, missing[j]));
      }
      SHAROES_ASSIGN_OR_RETURN(std::vector<ssp::Response> resps,
                               MultiGet(std::move(gets)));
      for (size_t j = pos; j < end; ++j) {
        uint32_t i = missing[j];
        const ssp::Response& sub = resps[j - pos];
        if (!sub.ok()) {
          return ReadSubError("data block " + std::to_string(i), sub.status);
        }
        const Bytes& wire = sub.payload;
        SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h,
                                 ObjectCodec::PeekDataHeader(wire));
        if (h.write_gen != desc.GenOfBlock(i)) {
          return Status::Corruption(
              "data block generation does not match the descriptor");
        }
        SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey dek,
                                 key_for(h.key_gen));
        SHAROES_ASSIGN_OR_RETURN(
            Bytes plain,
            codec_.DecodeDataBlock(inode, i, wire, dek, *node.view.dvk));
        SHAROES_ASSIGN_OR_RETURN(Bytes tag, ObjectCodec::PeekDataTag(wire));
        cache_.Put(DataCacheKey(inode, i), plain, wire.size());
        cache_.Put(TagCacheKey(inode, i), tag, tag.size());
        tail_tags[i - 1] = std::move(tag);
        chunks[i] = std::move(plain);
      }
    }
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      ::sharoes::Append(content, chunks[i]);
    }
  }
  // The one signature a reader verifies (block 0) commits to the tail
  // blocks only through the descriptor's Merkle root: re-derive it from
  // the tags actually served and compare. A cross-block splice — valid
  // AEAD blocks lifted from another consistent version of this file —
  // fails here even though every individual tag authenticated, and a
  // reader who forged tail tags with the shared DEK fails here because
  // it cannot re-sign block 0 without the DSK.
  if (!ConstantTimeEquals(crypto::MerkleRoot(tail_tags), desc.tag_root)) {
    return Status::Corruption(
        "block tag root mismatch: tail blocks do not match the signed "
        "descriptor");
  }
  if (content.size() != desc.size) {
    return Status::Corruption("file size mismatch after reassembly");
  }
  return content;
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
  return FetchFileContent(node);
}

Status SharoesClient::Write(const std::string& path, const Bytes& content) {
  OpScope span(this, "Write");
  // Buffers key by the canonical spelling: "/a//b/" and "/a/b" are the
  // same file and must hit the same dirty buffer.
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  if (it != write_buffers_.end()) {
    it->second.content = content;
    it->second.dirty = true;
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
  write_buffers_[norm] = WriteBuffer{node.ref.inode, content, true};
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
  crypto::SymmetricKey dek = *node.view.dek;
  uint32_t key_gen = node.view.dek_gen;
  bool key_rotated = false;
  if (node.view.dek_next.has_value()) {
    dek = *node.view.dek_next;
    key_gen = node.view.dek_gen + 1;
    key_rotated = true;
  }
  const Bytes& content = buf->content;
  size_t block_size = options_.block_size;
  fs::InodeNum inode = buf->inode;
  DataDescriptor desc;
  desc.size = content.size();
  size_t chunk0 = std::min(content.size(), block_size);
  size_t rest = content.size() - chunk0;
  desc.block_count =
      1 + static_cast<uint32_t>((rest + block_size - 1) / block_size);
  SHAROES_ASSIGN_OR_RETURN(desc.write_gen, NextWriteGen(inode));

  // The paper divides files into blocks precisely so a write does not
  // re-encrypt the whole file (§II-B). When the previous version is in
  // the local cache, only changed blocks are re-encrypted and shipped.
  DataDescriptor old_desc;
  bool have_old = false;
  if (auto cached0 = cache_.Get<Bytes>(DataCacheKey(inode, 0))) {
    BinaryReader r(*cached0);
    auto parsed = DataDescriptor::ReadFrom(&r);
    if (parsed.ok()) {
      old_desc = *parsed;
      have_old = true;
    }
  }
  // Diff only when the file did not shrink and keys did not rotate.
  bool diff = have_old && !key_rotated &&
              desc.block_count >= old_desc.block_count;

  auto chunk_of = [&](uint32_t idx) {
    size_t begin = idx == 0 ? 0 : chunk0 + (idx - 1) * block_size;
    size_t end = std::min(content.size(),
                          idx == 0 ? chunk0 : begin + block_size);
    return Bytes(content.begin() + begin, content.begin() + end);
  };
  auto old_chunk_of = [&](uint32_t idx) -> std::optional<Bytes> {
    auto cached = cache_.Get<Bytes>(DataCacheKey(inode, idx));
    if (cached == nullptr) return std::nullopt;
    if (idx == 0) {
      BinaryReader r(*cached);
      if (!DataDescriptor::ReadFrom(&r).ok()) return std::nullopt;
      return r.GetRaw(r.remaining());
    }
    return *cached;
  };

  desc.block_gens.assign(desc.block_count, desc.write_gen);
  std::vector<bool> changed(desc.block_count, true);
  std::vector<Bytes> tail_tags(desc.block_count - 1);
  if (diff) {
    for (uint32_t i = 1; i < desc.block_count; ++i) {
      if (i >= old_desc.block_count) continue;  // Appended block: new.
      auto old_chunk = old_chunk_of(i);
      // Keeping a block also requires its cached AEAD tag: the new
      // descriptor's root must commit to every tail block, kept or
      // rewritten, and an uncached tag would force a read to learn it.
      auto old_tag = cache_.Get<Bytes>(TagCacheKey(inode, i));
      if (old_chunk.has_value() && old_tag != nullptr &&
          *old_chunk == chunk_of(i)) {
        changed[i] = false;
        desc.block_gens[i] = old_desc.GenOfBlock(i);
        tail_tags[i - 1] = *old_tag;
      }
    }
  }

  std::vector<ssp::Request> puts;
  if (!diff || desc.block_count != old_desc.block_count) {
    // Shape changed (or no diff basis): clear stale blocks first when
    // shrinking; growth needs no delete.
    if (!diff) puts.push_back(ssp::Request::DeleteInodeData(inode));
  }
  // Tail blocks encode first: their AEAD tags are the Merkle leaves the
  // descriptor inside block 0 must commit to.
  std::vector<Bytes> tail_wires(desc.block_count);
  for (uint32_t idx = 1; idx < desc.block_count; ++idx) {
    if (!changed[idx]) continue;
    Bytes chunk = chunk_of(idx);
    ObjectCodec::DataBlockHeader header{key_gen, desc.write_gen};
    Bytes tag;
    tail_wires[idx] = codec_.EncodeDataBlock(inode, idx, header, chunk, dek,
                                             *node.view.dsk, &tag);
    cache_.Put(DataCacheKey(inode, idx), chunk, tail_wires[idx].size());
    cache_.Put(TagCacheKey(inode, idx), tag, tag.size());
    tail_tags[idx - 1] = std::move(tag);
  }
  desc.tag_root = crypto::MerkleRoot(tail_tags);
  // Block 0 encodes last: it carries the descriptor, whose root now
  // covers the tail tags above.
  BinaryWriter w0;
  desc.AppendTo(&w0);
  w0.PutRaw(content.data(), chunk0);
  Bytes plain0 = w0.Take();
  ObjectCodec::DataBlockHeader header0{key_gen, desc.write_gen};
  Bytes wire0 = codec_.EncodeDataBlock(inode, 0, header0, plain0, dek,
                                       *node.view.dsk);
  cache_.Put(DataCacheKey(inode, 0), plain0, wire0.size());
  puts.push_back(ssp::Request::PutData(inode, 0, std::move(wire0)));
  for (uint32_t idx = 1; idx < desc.block_count; ++idx) {
    if (changed[idx]) {
      puts.push_back(
          ssp::Request::PutData(inode, idx, std::move(tail_wires[idx])));
    }
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(puts)));
  freshness_[inode] = FreshnessRecord{desc.write_gen, desc.tag_root};
  return Status::OK();
}

Result<uint64_t> SharoesClient::NextWriteGen(fs::InodeNum inode) {
  auto it = freshness_.find(inode);
  if (it != freshness_.end()) return it->second.write_gen + 1;
  // Unknown history (overwrite of a never-read file): peek the stored
  // header so generations stay monotonic for other clients.
  SHAROES_ASSIGN_OR_RETURN(ssp::Response resp,
                           Rpc(ssp::Request::GetData(inode, 0)));
  if (resp.status == ssp::RespStatus::kNotFound) return 1;  // Never written.
  if (!resp.ok()) {
    // A transient failure must not be mistaken for "never written":
    // starting over at generation 1 would trip other clients' rollback
    // detection. Surface it and let the caller retry.
    return ReadSubError("data block 0", resp.status);
  }
  SHAROES_ASSIGN_OR_RETURN(ObjectCodec::DataBlockHeader h,
                           ObjectCodec::PeekDataHeader(resp.payload));
  return h.write_gen + 1;
}

Status SharoesClient::Close(const std::string& path) {
  OpScope span(this, "Close");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  auto it = write_buffers_.find(norm);
  Status s = Status::OK();
  if (it != write_buffers_.end()) {
    if (it->second.dirty) s = FlushBuffer(path, &it->second);
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
  MasterTable master;
  if (attrs.type == fs::FileType::kDirectory) {
    SHAROES_ASSIGN_OR_RETURN(master, FetchMaster(node, bundle));
  }

  std::vector<ssp::Request> batch;
  std::optional<crypto::SymmetricKey> dek_next = node.view.dek_next;
  uint32_t dek_gen = node.view.dek_gen;
  bool revoke = lost_read || lost_write;
  if (revoke && attrs.type == fs::FileType::kFile) {
    if (options_.revocation == RevocationMode::kImmediate) {
      // Re-encrypt the file under fresh keys right now.
      SHAROES_ASSIGN_OR_RETURN(Bytes content, FetchFileContent(node));
      bundle.dek = engine_->NewSymmetricKey();
      if (lost_write) bundle.data = engine_->NewSigningKeyPair();
      dek_gen += 1;
      dek_next.reset();
      DataDescriptor desc;
      desc.size = content.size();
      size_t bs = options_.block_size;
      size_t chunk0 = std::min(content.size(), bs);
      desc.block_count = 1 + static_cast<uint32_t>(
                                 (content.size() - chunk0 + bs - 1) / bs);
      SHAROES_ASSIGN_OR_RETURN(desc.write_gen, NextWriteGen(attrs.inode));
      desc.block_gens.assign(desc.block_count, desc.write_gen);
      ObjectCodec::DataBlockHeader header{dek_gen, desc.write_gen};
      // Tail blocks encode first so their AEAD tags can root the
      // descriptor that block 0 carries.
      std::vector<Bytes> tail_wires;
      std::vector<Bytes> tail_tags;
      for (size_t pos = chunk0; pos < content.size(); pos += bs) {
        size_t n = std::min(bs, content.size() - pos);
        Bytes chunk(content.begin() + pos, content.begin() + pos + n);
        Bytes tag;
        tail_wires.push_back(codec_.EncodeDataBlock(
            attrs.inode, static_cast<uint32_t>(tail_wires.size()) + 1,
            header, chunk, bundle.dek, bundle.data.sign, &tag));
        tail_tags.push_back(std::move(tag));
      }
      desc.tag_root = crypto::MerkleRoot(tail_tags);
      freshness_[attrs.inode] =
          FreshnessRecord{desc.write_gen, desc.tag_root};
      batch.push_back(ssp::Request::DeleteInodeData(attrs.inode));
      BinaryWriter w0;
      desc.AppendTo(&w0);
      w0.PutRaw(content.data(), chunk0);
      batch.push_back(ssp::Request::PutData(
          attrs.inode, 0,
          codec_.EncodeDataBlock(attrs.inode, 0, header, w0.Take(),
                                 bundle.dek, bundle.data.sign)));
      for (size_t i = 0; i < tail_wires.size(); ++i) {
        batch.push_back(ssp::Request::PutData(
            attrs.inode, static_cast<uint32_t>(i) + 1,
            std::move(tail_wires[i])));
      }
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
  for (const ReplicaSpec& spec : new_specs) {
    batch.push_back(ssp::Request::PutMetadata(
        attrs.inode, spec.selector,
        codec_.EncodeMetadataReplica(spec, new_attrs, bundle, dek_gen,
                                     dek_next)));
  }
  // Directories: re-render the tables (view kinds / keys may have changed).
  if (attrs.type == fs::FileType::kDirectory) {
    WriterDirContext ctx;
    ctx.node = node;
    ctx.node.view.attrs = new_attrs;
    ctx.bundle = bundle;
    ctx.ownership = new_info;
    ctx.master = std::move(master);
    SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch));
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  InvalidateInode(attrs.inode);
  return Status::OK();
}

Status SharoesClient::RemoveObject(const std::string& path,
                                   fs::FileType type) {
  OpScope span(this, type == fs::FileType::kDirectory ? "Rmdir" : "Unlink");
  ChargeClientOverhead();
  SHAROES_ASSIGN_OR_RETURN(fs::SplitParent sp, fs::SplitParentName(path));
  SHAROES_ASSIGN_OR_RETURN(WriterDirContext ctx, LoadDirForWrite(sp.parent));
  const MasterEntry* entry = ctx.master.Find(sp.name);
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
    auto table = FetchTable(child);
    if (!table.ok()) {
      return Status::PermissionDenied(
          "cannot verify directory is empty through this CAP");
    }
    size_t entries = (*table)->names.size() + (*table)->exec_rows.size();
    if (entries > 0) {
      return Status::FailedPrecondition("directory not empty");
    }
  }
  SHAROES_RETURN_IF_ERROR(ctx.master.Remove(sp.name));
  std::vector<ssp::Request> batch;
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch));
  batch.push_back(ssp::Request::DeleteInodeMetadata(child_inode));
  batch.push_back(ssp::Request::DeleteInodeData(child_inode));
  // Remove any split blocks of the child.
  for (fs::UserId uid : identity_->AllUsers()) {
    ssp::Request del;
    del.op = ssp::OpCode::kDeleteUserMetadata;
    del.inode = child_inode;
    del.user = uid;
    batch.push_back(del);
  }
  for (fs::GroupId gid : identity_->AllGroups()) {
    ssp::Request del;
    del.op = ssp::OpCode::kDeleteUserMetadata;
    del.inode = child_inode;
    del.user = GroupBlockKey(gid);
    batch.push_back(del);
  }
  SHAROES_RETURN_IF_ERROR(ExecuteBatch(std::move(batch)));
  InvalidateInode(child_inode);
  SHAROES_ASSIGN_OR_RETURN(std::string norm, NormalizePath(path));
  write_buffers_.erase(norm);
  return Status::OK();
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
  MasterEntry* entry = src_ctx.master.Find(src.name);
  if (entry == nullptr) return Status::NotFound("'" + from + "' not found");

  if (src.parent == dst.parent) {
    // Same-directory rename: one master edit, one table render.
    if (src_ctx.master.Find(dst.name) != nullptr) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    entry->name = dst.name;
    std::vector<ssp::Request> batch;
    SHAROES_RETURN_IF_ERROR(RenderDirTables(src_ctx, &batch));
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
    if (dst_ctx.master.Find(dst.name) != nullptr) {
      return Status::AlreadyExists("'" + to + "' already exists");
    }
    MasterEntry moved = *entry;
    moved.name = dst.name;
    SHAROES_RETURN_IF_ERROR(src_ctx.master.Remove(src.name));
    SHAROES_RETURN_IF_ERROR(dst_ctx.master.Add(std::move(moved)));
    std::vector<ssp::Request> batch;
    SHAROES_RETURN_IF_ERROR(RenderDirTables(src_ctx, &batch));
    SHAROES_RETURN_IF_ERROR(RenderDirTables(dst_ctx, &batch));
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
  SHAROES_RETURN_IF_ERROR(RenderDirTables(ctx, &batch));
  return ExecuteBatch(std::move(batch));
}

Status SharoesClient::Unlink(const std::string& path) {
  return RemoveObject(path, fs::FileType::kFile);
}

Status SharoesClient::Rmdir(const std::string& path) {
  return RemoveObject(path, fs::FileType::kDirectory);
}

}  // namespace sharoes::core
