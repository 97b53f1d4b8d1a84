#include "core/object_codec.h"

#include <set>

#include "crypto/aead.h"
#include "crypto/kdf.h"
#include "crypto/merkle.h"
#include "obs/span.h"

namespace sharoes::core {

namespace {

// Envelope = length-prefixed (sealed, signature).
Bytes PackEnvelope(const Bytes& sealed, const Bytes& sig) {
  BinaryWriter w;
  w.PutBytes(sealed);
  w.PutBytes(sig);
  return w.Take();
}

Status UnpackEnvelope(const Bytes& wire, Bytes* sealed, Bytes* sig,
                      const std::string& what) {
  BinaryReader r(wire);
  *sealed = r.GetBytes();
  *sig = r.GetBytes();
  return r.Finish(what + " envelope");
}

}  // namespace

Bytes SigContext(std::string_view kind, fs::InodeNum inode, uint64_t id) {
  BinaryWriter w;
  w.PutString(kind);
  w.PutU64(inode);
  w.PutU64(id);
  return w.Take();
}

Bytes ObjectCodec::SealAndSign(const Bytes& context, const Bytes& payload,
                               const crypto::SymmetricKey& key,
                               const crypto::SigningKey& signer) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  Bytes sealed = engine_->SymEncrypt(key, payload);
  Bytes to_sign = context;
  Append(to_sign, sealed);
  Bytes sig = engine_->Sign(signer, to_sign);
  return PackEnvelope(sealed, sig);
}

Result<Bytes> ObjectCodec::VerifyAndOpen(const Bytes& context,
                                         const Bytes& wire,
                                         const crypto::SymmetricKey& key,
                                         const crypto::VerifyKey& verifier,
                                         const std::string& what) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  Bytes sealed, sig;
  SHAROES_RETURN_IF_ERROR(UnpackEnvelope(wire, &sealed, &sig, what));
  Bytes to_verify = context;
  Append(to_verify, sealed);
  if (!engine_->Verify(verifier, to_verify, sig)) {
    return Status::IntegrityError(what + " signature verification failed");
  }
  return engine_->SymDecrypt(key, sealed);
}

ObjectKeyBundle ObjectCodec::NewBundle(fs::FileType type,
                                       const std::vector<ReplicaSpec>& specs) {
  ObjectKeyBundle b;
  b.data = engine_->NewSigningKeyPair();
  b.meta = engine_->NewSigningKeyPair();
  for (const ReplicaSpec& spec : specs) {
    b.meks[spec.selector] = engine_->NewSymmetricKey();
  }
  if (type == fs::FileType::kFile) {
    b.dek = engine_->NewSymmetricKey();
  } else {
    for (const ReplicaSpec& spec : specs) {
      b.table_keys[spec.selector] = engine_->NewSymmetricKey();
    }
    b.table_keys[kMasterSelector] = engine_->NewSymmetricKey();
  }
  return b;
}

void ObjectCodec::RenderReplicas(
    const fs::InodeAttrs& attrs, const std::vector<ReplicaSpec>& specs,
    const ObjectKeyBundle& bundle, std::vector<ssp::Request>* out,
    uint32_t dek_gen) {
  for (const ReplicaSpec& spec : specs) {
    out->push_back(ssp::Request::PutMetadata(
        attrs.inode, spec.selector,
        EncodeMetadataReplica(spec, attrs, bundle, dek_gen)));
  }
}

uint8_t ObjectCodec::FreshDepth(size_t entries) {
  uint8_t depth = 0;
  while (depth < kMaxTableDepth && entries > (kGrowLoad << depth)) ++depth;
  return depth;
}

uint8_t ObjectCodec::NextDepth(uint8_t depth, size_t entries) {
  const bool over = entries > (kGrowLoad << depth);
  const bool under = depth > 0 && entries < (kShrinkLoad << depth);
  return over || under ? FreshDepth(entries) : depth;
}

uint32_t ObjectCodec::BucketOf(const crypto::SymmetricKey& table_key,
                               const std::string& name, uint8_t depth) {
  return RowIdBucket(
      crypto::kdf::DeriveLabeled(table_key, "sharoes-rowid:" + name).key,
      depth);
}

uint32_t ObjectCodec::RowIdBucket(const Bytes& row_id, uint8_t depth) {
  uint32_t h = 0;
  for (size_t i = 0; i < 4 && i < row_id.size(); ++i) {
    h |= static_cast<uint32_t>(row_id[i]) << (8 * i);
  }
  return h & ((uint32_t{1} << depth) - 1);
}

namespace {

/// The master's entries bucket by bucket, in master order within each.
std::vector<std::vector<const MasterEntry*>> Partition(
    const MasterTable& master, const crypto::SymmetricKey& key,
    uint8_t depth) {
  std::vector<std::vector<const MasterEntry*>> parts(size_t{1} << depth);
  for (const MasterEntry& e : master.entries) {
    parts[ObjectCodec::BucketOf(key, e.name, depth)].push_back(&e);
  }
  return parts;
}

/// The buckets a render rewrites in a table keyed by `key`.
std::vector<uint32_t> RenderedBuckets(const ObjectCodec::DirRender& render,
                                      const crypto::SymmetricKey& key) {
  std::set<uint32_t> picked;
  if (render.changed == nullptr) {
    for (uint32_t b = 0; b < (uint32_t{1} << render.depth); ++b) {
      picked.insert(b);
    }
  } else {
    for (const std::string& name : *render.changed) {
      picked.insert(ObjectCodec::BucketOf(key, name, render.depth));
    }
  }
  return {picked.begin(), picked.end()};
}

MasterTable SubTable(const std::vector<const MasterEntry*>& rows) {
  MasterTable t;
  for (const MasterEntry* e : rows) t.entries.push_back(*e);
  return t;
}

}  // namespace

Status ObjectCodec::RenderDirTables(fs::InodeNum dir_inode,
                                    const OwnershipInfo& info,
                                    const MasterTable& master,
                                    const ObjectKeyBundle& bundle,
                                    std::vector<ssp::Request>* out,
                                    const DirRender& render) {
  const bool full = render.changed == nullptr;
  ReaderCopy* reader = render.reader;
  std::vector<PendingSplitBlock> blocks;
  std::vector<Selector> bucketed;
  std::map<uint32_t, size_t> reader_sizes;
  auto key_of = [&](Selector sel) -> Result<const crypto::SymmetricKey*> {
    auto it = bundle.table_keys.find(sel);
    if (it == bundle.table_keys.end()) {
      return Status::Internal("missing table key for copy " +
                              std::to_string(sel));
    }
    return &it->second;
  };
  for (const ReplicaSpec& spec : ReplicasFor(info, scheme_, *dir_)) {
    SHAROES_ASSIGN_OR_RETURN(const crypto::SymmetricKey* key,
                             key_of(spec.selector));
    TableView view = spec.Fields(fs::FileType::kDirectory).table_view;
    const TableHead head{render.depth};
    std::vector<fs::UserId> universe =
        UniverseOf(info, spec.selector, scheme_, *dir_);
    const bool mine = reader != nullptr && spec.selector == reader->selector;
    if (view != TableView::kNone) {
      if (full) {
        out->push_back(ssp::Request::PutMetadata(
            dir_inode, TableSelector(spec.selector),
            EncodeTableHead(dir_inode, spec.selector, head, *key,
                            bundle.data.sign)));
      }
      bucketed.push_back(spec.selector);
      auto parts = Partition(master, *key, render.depth);
      for (uint32_t b : RenderedBuckets(render, *key)) {
        SHAROES_ASSIGN_OR_RETURN(
            Bytes wire,
            EncodeTableBucket(dir_inode, spec.selector, view, render.depth, b,
                              SubTable(parts[b]), universe, bundle, &blocks));
        if (mine) reader_sizes[b] = wire.size();
        out->push_back(ssp::Request::PutMetadata(
            dir_inode, BucketSelector(spec.selector, b), std::move(wire)));
      }
    }
    if (mine) {
      reader->head = head;
      reader->buckets.clear();
      reader->sizes.clear();
      // Best-effort, as a cache fill: a row that fails to render here
      // leaves the writer's copy uncached, and a read fetches it.
      if (view == TableView::kFull &&
          RenderFullTableView(master, universe, *key, reader).ok()) {
        for (const auto& [b, size] : reader_sizes) reader->sizes[b] = size;
      } else {
        reader->buckets.clear();
        reader->sizes.clear();
      }
    }
  }
  SHAROES_ASSIGN_OR_RETURN(const crypto::SymmetricKey* master_key,
                           key_of(kMasterSelector));
  if (full) {
    out->push_back(ssp::Request::PutMetadata(
        dir_inode, TableSelector(kMasterSelector),
        EncodeTableHead(dir_inode, kMasterSelector, TableHead{render.depth},
                        *master_key, bundle.data.sign)));
  }
  auto parts = Partition(master, *master_key, render.depth);
  for (uint32_t b : RenderedBuckets(render, *master_key)) {
    out->push_back(ssp::Request::PutMetadata(
        dir_inode, BucketSelector(kMasterSelector, b),
        EncodeMasterBucket(dir_inode, render.depth, b, SubTable(parts[b]),
                           bundle)));
  }
  if (full && render.stored_depth > render.depth) {
    // A shrink: the buckets past the new depth would only ever answer a
    // reader with a stale head, so they go.
    bucketed.push_back(kMasterSelector);
    for (Selector sel : bucketed) {
      for (uint32_t b = uint32_t{1} << render.depth;
           b < (uint32_t{1} << render.stored_depth); ++b) {
        out->push_back(ssp::Request::Delete(
            ssp::ObjectRef::Metadata(dir_inode, BucketSelector(sel, b))));
      }
    }
  }
  for (PendingSplitBlock& b : blocks) {
    out->push_back(
        ssp::Request::PutUserMetadata(b.child_inode, b.id, std::move(b.wire)));
  }
  return Status::OK();
}

MasterEntry ObjectCodec::EntryFor(const std::string& name,
                                  const fs::InodeAttrs& attrs,
                                  const ObjectKeyBundle& bundle) {
  MasterEntry entry;
  entry.name = name;
  entry.inode = attrs.inode;
  entry.child = OwnershipInfo::FromAttrs(attrs);
  entry.mvk = bundle.meta.verify.Serialize();
  for (const auto& [sel, mek] : bundle.meks) {
    entry.meks[sel] = mek.Serialize();
  }
  return entry;
}

ObjectCodec::RenderedFile ObjectCodec::RenderFile(
    fs::InodeNum inode, const Bytes& content,
    const std::vector<size_t>& chunk_ends, const DataBlockHeader& header,
    const crypto::SymmetricKey& dek, const crypto::SigningKey& dsk,
    const std::map<uint32_t, KeptBlock>* kept,
    std::vector<ssp::Request>* out) {
  RenderedFile file;
  DataDescriptor& desc = file.desc;
  desc.size = content.size();
  desc.block_count = 1 + static_cast<uint32_t>(chunk_ends.size());
  desc.write_gen = header.write_gen;
  desc.block_gens.assign(desc.block_count - 1, header.write_gen);
  // Chunk blocks seal first: their AEAD tags are the Merkle leaves the
  // descriptor commits to.
  std::vector<Bytes> tags(desc.block_count - 1);
  std::vector<Bytes> wires(desc.block_count);
  for (uint32_t idx = 1; idx < desc.block_count; ++idx) {
    if (kept != nullptr) {
      auto keep = kept->find(idx);
      if (keep != kept->end()) {
        desc.block_gens[idx - 1] = keep->second.gen;
        tags[idx - 1] = keep->second.tag;
        continue;
      }
    }
    const size_t begin = idx == 1 ? 0 : chunk_ends[idx - 2];
    Bytes chunk(content.begin() + begin,
                content.begin() + chunk_ends[idx - 1]);
    Bytes tag;
    wires[idx] = EncodeDataBlock(inode, idx, header, chunk, dek, &tag);
    tags[idx - 1] = tag;
    file.sealed.push_back(
        SealedBlock{idx, std::move(chunk), std::move(tag), wires[idx].size()});
  }
  desc.tag_root = crypto::MerkleRoot(tags);
  Bytes wire0 = EncodeDescriptor(inode, header, desc, dsk);
  file.desc_wire_size = wire0.size();
  out->push_back(ssp::Request::PutData(inode, 0, std::move(wire0)));
  for (uint32_t idx = 1; idx < desc.block_count; ++idx) {
    if (!wires[idx].empty()) {  // Kept blocks have no new wire.
      out->push_back(ssp::Request::PutData(inode, idx, std::move(wires[idx])));
    }
  }
  return file;
}

MetadataView ObjectCodec::BuildView(const ReplicaSpec& spec,
                                    const fs::InodeAttrs& attrs,
                                    const ObjectKeyBundle& bundle,
                                    uint32_t dek_gen) {
  CapFields fields = spec.Fields(attrs.type);
  MetadataView view;
  view.attrs = attrs;
  bool is_dir = attrs.type == fs::FileType::kDirectory;
  if (fields.dek) {
    if (is_dir) {
      auto it = bundle.table_keys.find(spec.selector);
      if (it != bundle.table_keys.end()) view.dek = it->second;
    } else {
      view.dek = bundle.dek;
    }
    view.dek_gen = dek_gen;
  }
  if (fields.dvk) view.dvk = bundle.data.verify;
  if (fields.dsk) view.dsk = bundle.data.sign;
  if (fields.msk) view.msk = bundle.meta.sign;
  if (spec.owner) {
    view.mvk = bundle.meta.verify;
    view.meks = bundle.meks;
  }
  // Directory writers must be able to rewrite every table copy.
  if (is_dir && (fields.dsk || spec.owner)) {
    view.table_keys = bundle.table_keys;
  }
  return view;
}

Bytes ObjectCodec::EncodeMetadataReplica(const ReplicaSpec& spec,
                                         const fs::InodeAttrs& attrs,
                                         const ObjectKeyBundle& bundle,
                                         uint32_t dek_gen) {
  MetadataView view = BuildView(spec, attrs, bundle, dek_gen);
  auto mek_it = bundle.meks.find(spec.selector);
  // The caller must have generated a MEK for every replica it encodes.
  crypto::SymmetricKey mek =
      mek_it != bundle.meks.end() ? mek_it->second : crypto::SymmetricKey{};
  return SealAndSign(SigContext("meta", attrs.inode, spec.selector),
                     view.Serialize(), mek, bundle.meta.sign);
}

Result<MetadataView> ObjectCodec::DecodeMetadataReplica(
    fs::InodeNum inode, Selector selector, const Bytes& wire,
    const crypto::SymmetricKey& mek, const crypto::VerifyKey& mvk) {
  SHAROES_ASSIGN_OR_RETURN(
      Bytes payload, VerifyAndOpen(SigContext("meta", inode, selector), wire,
                                   mek, mvk, "metadata replica"));
  SHAROES_ASSIGN_OR_RETURN(MetadataView view,
                           MetadataView::Deserialize(payload));
  if (view.attrs.inode != inode) {
    return Status::IntegrityError("metadata replica inode mismatch");
  }
  return view;
}

// When `blocks` is null, the row is rendered logically but split blocks
// are not (re)encrypted — used for refreshing the client's own decoded
// cache without paying for cryptography it already performed.
Result<RowRef> ObjectCodec::RenderRow(const MasterEntry& entry,
                                      const std::vector<fs::UserId>& universe,
                                      std::vector<PendingSplitBlock>* blocks) {
  RowRef row;
  row.inode = entry.inode;
  row.type = entry.child.type;
  if (universe.empty()) {
    // Nobody reads this copy; emit a keyless split marker so the row
    // never has to reference a replica that was not materialized.
    row.kind = RowRef::Kind::kSplit;
    return row;
  }
  SHAROES_ASSIGN_OR_RETURN(crypto::VerifyKey child_mvk,
                           crypto::VerifyKey::Deserialize(entry.mvk));
  RowPlan plan = PlanRow(entry.child, universe, scheme_, *dir_);

  auto ref_for = [&](Selector sel) -> Result<PlainRef> {
    auto it = entry.meks.find(sel);
    if (it == entry.meks.end()) {
      return Status::Internal("master entry missing MEK for selector " +
                              std::to_string(sel));
    }
    SHAROES_ASSIGN_OR_RETURN(crypto::SymmetricKey mek,
                             crypto::SymmetricKey::Deserialize(it->second));
    PlainRef ref;
    ref.inode = entry.inode;
    ref.type = entry.child.type;
    ref.selector = sel;
    ref.mek = std::move(mek);
    ref.mvk = child_mvk;
    return ref;
  };

  if (plan.uniform) {
    row.kind = RowRef::Kind::kPlain;
    SHAROES_ASSIGN_OR_RETURN(row.plain, ref_for(plan.selector));
    return row;
  }

  // Split point: per-user blocks, with one shared group block covering the
  // readers that resolve to the child's group class (paper §III-D.2).
  row.kind = RowRef::Kind::kSplit;
  bool group_block_written = false;
  for (const auto& [uid, sel] : plan.per_user) {
    SHAROES_ASSIGN_OR_RETURN(PlainRef ref, ref_for(sel));
    if (sel == kGroupSelector && dir_->IsMember(entry.child.group, uid)) {
      if (!group_block_written) {
        if (blocks != nullptr) {
          SHAROES_ASSIGN_OR_RETURN(GroupInfo ginfo,
                                   dir_->GetGroup(entry.child.group));
          SHAROES_ASSIGN_OR_RETURN(
              Bytes wire, EncodeRefBlock(ginfo.public_key, ref));
          blocks->push_back(PendingSplitBlock{
              /*is_group=*/true, GroupBlockKey(entry.child.group),
              entry.inode, std::move(wire)});
        }
        group_block_written = true;
        row.has_group_block = true;
        row.gid = entry.child.group;
      }
      continue;
    }
    if (blocks != nullptr) {
      SHAROES_ASSIGN_OR_RETURN(UserInfo uinfo, dir_->GetUser(uid));
      SHAROES_ASSIGN_OR_RETURN(Bytes wire,
                               EncodeRefBlock(uinfo.public_key, ref));
      blocks->push_back(PendingSplitBlock{/*is_group=*/false, uid,
                                          entry.inode, std::move(wire)});
    }
  }
  return row;
}

Status ObjectCodec::RenderFullTableView(
    const MasterTable& master, const std::vector<fs::UserId>& universe,
    const crypto::SymmetricKey& table_key, ReaderCopy* reader) {
  auto parts = Partition(master, table_key, reader->head.depth);
  for (const std::vector<const MasterEntry*>& rows : parts) {
    DecodedTable t;
    t.view = TableView::kFull;
    BinaryWriter sized;
    for (const MasterEntry* e : rows) {
      SHAROES_ASSIGN_OR_RETURN(RowRef row,
                               RenderRow(*e, universe, /*blocks=*/nullptr));
      sized.PutString(e->name);
      row.AppendTo(&sized);
      t.names.push_back(e->name);
      t.refs[e->name] = std::move(row);
    }
    reader->buckets.push_back(std::move(t));
    reader->sizes.push_back(sized.size());
  }
  return Status::OK();
}

namespace {

/// What a bucket's signature binds besides its sealed rows: the
/// directory, the copy, the depth and the index. A bucket moved to another
/// directory, copy or index, or served under a head of another depth,
/// fails verification.
Bytes BucketContext(fs::InodeNum dir_inode, Selector copy, uint8_t depth,
                    uint32_t index) {
  BinaryWriter w;
  w.PutRaw(SigContext("tbucket", dir_inode, copy));
  w.PutU8(depth);
  w.PutU32(index);
  return w.Take();
}

}  // namespace

Bytes ObjectCodec::SealTable(Selector copy, const Bytes& context,
                             const Bytes& payload,
                             const crypto::SymmetricKey& table_key,
                             const crypto::SigningKey& dsk) {
  if (copy != kMasterSelector) {
    return SealAndSign(context, payload, table_key, dsk);
  }
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  crypto::CryptoEngine::AeadSealed sealed =
      engine_->AeadSeal(table_key, context, payload);
  BinaryWriter w;
  w.PutRaw(sealed.nonce);
  w.PutBytes(sealed.ciphertext);
  w.PutRaw(sealed.tag);
  return w.Take();
}

Result<Bytes> ObjectCodec::OpenTable(Selector copy, const Bytes& context,
                                     const Bytes& wire,
                                     const crypto::SymmetricKey& table_key,
                                     const crypto::VerifyKey& dvk,
                                     const std::string& what) {
  if (copy != kMasterSelector) {
    auto payload = VerifyAndOpen(context, wire, table_key, dvk, what);
    if (!payload.ok()) return Status::Corruption(payload.status().message());
    return std::move(*payload);
  }
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  BinaryReader r(wire);
  Bytes nonce = r.GetRaw(crypto::kAeadNonceSize);
  Bytes ct = r.GetBytes();
  Bytes tag = r.GetRaw(crypto::kAeadTagSize);
  if (!r.Finish(what + " envelope").ok()) {
    return Status::Corruption("malformed " + what);
  }
  auto payload = engine_->AeadOpen(table_key, context, nonce, ct, tag);
  if (!payload.ok()) return Status::Corruption(what + " does not authenticate");
  return std::move(*payload);
}

Bytes ObjectCodec::EncodeTableHead(fs::InodeNum dir_inode, Selector copy,
                                   const TableHead& head,
                                   const crypto::SymmetricKey& table_key,
                                   const crypto::SigningKey& dsk) {
  return SealTable(copy, SigContext("thead", dir_inode, copy),
                   Bytes{head.depth}, table_key, dsk);
}

Result<TableHead> ObjectCodec::DecodeTableHead(
    fs::InodeNum dir_inode, Selector copy, const Bytes& wire,
    const crypto::SymmetricKey& table_key, const crypto::VerifyKey& dvk) {
  SHAROES_ASSIGN_OR_RETURN(
      Bytes payload, OpenTable(copy, SigContext("thead", dir_inode, copy),
                               wire, table_key, dvk, "table head"));
  BinaryReader r(payload);
  TableHead head;
  head.depth = r.GetU8();
  if (!r.Finish("table head").ok() || head.depth > kMaxTableDepth) {
    return Status::Corruption("malformed table head");
  }
  return head;
}

Bytes ObjectCodec::SealBucket(fs::InodeNum dir_inode, Selector copy,
                              uint8_t depth, uint32_t index,
                              const Bytes& payload,
                              const crypto::SymmetricKey& table_key,
                              const crypto::SigningKey& dsk) {
  Bytes wire{depth};
  Append(wire, SealTable(copy, BucketContext(dir_inode, copy, depth, index),
                         payload, table_key, dsk));
  return wire;
}

Result<Bytes> ObjectCodec::OpenBucket(fs::InodeNum dir_inode, Selector copy,
                                      uint32_t index, const Bytes& wire,
                                      const crypto::SymmetricKey& table_key,
                                      const crypto::VerifyKey& dvk) {
  if (wire.empty()) return Status::Corruption("empty table bucket");
  // The depth byte is cleartext and authenticated: a rewritten one fails
  // here.
  return OpenTable(copy, BucketContext(dir_inode, copy, wire[0], index),
                   Bytes(wire.begin() + 1, wire.end()), table_key, dvk,
                   "table bucket");
}

Result<uint8_t> ObjectCodec::PeekBucketDepth(const Bytes& wire) {
  if (wire.empty()) return Status::Corruption("empty table bucket");
  return wire[0];
}

Result<Bytes> ObjectCodec::EncodeTableBucket(
    fs::InodeNum dir_inode, Selector copy, TableView view, uint8_t depth,
    uint32_t index, const MasterTable& rows,
    const std::vector<fs::UserId>& universe, const ObjectKeyBundle& bundle,
    std::vector<PendingSplitBlock>* blocks) {
  auto key_it = bundle.table_keys.find(copy);
  if (key_it == bundle.table_keys.end()) {
    return Status::Internal("missing table key for copy " +
                            std::to_string(copy));
  }
  const crypto::SymmetricKey& table_key = key_it->second;
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(view));
  w.PutU32(static_cast<uint32_t>(rows.entries.size()));
  for (const MasterEntry& e : rows.entries) {
    switch (view) {
      case TableView::kNone:
        return Status::Internal("a kNone copy has no buckets");
      case TableView::kNamesOnly:
        w.PutString(e.name);
        break;
      case TableView::kFull: {
        SHAROES_ASSIGN_OR_RETURN(RowRef row, RenderRow(e, universe, blocks));
        w.PutString(e.name);
        row.AppendTo(&w);
        break;
      }
      case TableView::kExecOnly: {
        SHAROES_ASSIGN_OR_RETURN(RowRef row, RenderRow(e, universe, blocks));
        // Row id and row key are both derived from H_{DEK_this}(name); a
        // reader who knows the name can locate and open exactly that row.
        crypto::SymmetricKey row_id_key = crypto::kdf::DeriveLabeled(
            table_key, "sharoes-rowid:" + e.name);
        crypto::SymmetricKey row_key =
            engine_->DeriveNameKey(table_key, e.name);
        BinaryWriter rw;
        row.AppendTo(&rw);
        Bytes enc_row = engine_->SymEncrypt(row_key, rw.Take());
        w.PutBytes(row_id_key.key);
        w.PutBytes(enc_row);
        break;
      }
    }
  }
  return SealBucket(dir_inode, copy, depth, index, w.Take(), table_key,
                    bundle.data.sign);
}

Bytes ObjectCodec::EncodeMasterBucket(fs::InodeNum dir_inode, uint8_t depth,
                                      uint32_t index, const MasterTable& rows,
                                      const ObjectKeyBundle& bundle) {
  auto it = bundle.table_keys.find(kMasterSelector);
  crypto::SymmetricKey key =
      it != bundle.table_keys.end() ? it->second : crypto::SymmetricKey{};
  return SealBucket(dir_inode, kMasterSelector, depth, index,
                    rows.Serialize(), key, bundle.data.sign);
}

Result<DecodedTable> ObjectCodec::DecodeTableBucket(
    fs::InodeNum dir_inode, Selector copy, uint8_t depth, uint32_t index,
    const Bytes& wire, const crypto::SymmetricKey& table_key,
    const crypto::VerifyKey& dvk) {
  SHAROES_ASSIGN_OR_RETURN(
      Bytes payload, OpenBucket(dir_inode, copy, index, wire, table_key, dvk));
  // Rows of a bucket rendered at another depth that hash elsewhere at
  // `depth` belong to another bucket of this table.
  const bool stale = wire[0] != depth;
  auto here = [&](const std::string& name) {
    return !stale || BucketOf(table_key, name, depth) == index;
  };
  BinaryReader r(payload);
  DecodedTable t;
  uint8_t view = r.GetU8();
  uint32_t n = r.GetU32();
  if (!r.ok() || view == static_cast<uint8_t>(TableView::kNone) ||
      view > static_cast<uint8_t>(TableView::kExecOnly) ||
      n > r.remaining()) {
    return Status::Corruption("malformed table bucket");
  }
  t.view = static_cast<TableView>(view);
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    switch (t.view) {
      case TableView::kNone:
        break;
      case TableView::kNamesOnly: {
        std::string name = r.GetString();
        if (here(name)) t.names.push_back(std::move(name));
        break;
      }
      case TableView::kFull: {
        std::string name = r.GetString();
        auto row = RowRef::ReadFrom(&r);
        if (!row.ok()) return Status::Corruption("malformed table row");
        if (!here(name)) break;
        t.names.push_back(name);
        t.refs[name] = std::move(*row);
        break;
      }
      case TableView::kExecOnly: {
        Bytes row_id = r.GetBytes();
        Bytes enc_row = r.GetBytes();
        if (stale && RowIdBucket(row_id, depth) != index) break;
        t.exec_rows.emplace_back(std::move(row_id), std::move(enc_row));
        break;
      }
    }
  }
  if (!r.Finish("table bucket").ok()) {
    return Status::Corruption("truncated table bucket");
  }
  return t;
}

Result<MasterTable> ObjectCodec::DecodeMasterBucket(
    fs::InodeNum dir_inode, uint8_t depth, uint32_t index, const Bytes& wire,
    const crypto::SymmetricKey& table_key) {
  SHAROES_ASSIGN_OR_RETURN(Bytes payload,
                           OpenBucket(dir_inode, kMasterSelector, index, wire,
                                      table_key, crypto::VerifyKey{}));
  auto master = MasterTable::Deserialize(payload);
  if (!master.ok()) return Status::Corruption("malformed master bucket");
  if (wire[0] != depth) {
    // Stale content, as in DecodeTableBucket.
    std::erase_if(master->entries, [&](const MasterEntry& e) {
      return BucketOf(table_key, e.name, depth) != index;
    });
  }
  return master;
}

Result<RowRef> ObjectCodec::ExecOnlyLookup(const DecodedTable& table,
                                           const crypto::SymmetricKey& table_key,
                                           const std::string& name) {
  if (table.view != TableView::kExecOnly) {
    return Status::Internal("ExecOnlyLookup on non-exec-only table");
  }
  crypto::SymmetricKey row_id_key =
      crypto::kdf::DeriveLabeled(table_key, "sharoes-rowid:" + name);
  for (const auto& [row_id, enc_row] : table.exec_rows) {
    // Row ids are KDF outputs of the secret table key: compare in
    // constant time like any other secret-derived digest.
    if (!ConstantTimeEquals(row_id, row_id_key.key)) continue;
    crypto::SymmetricKey row_key = engine_->DeriveNameKey(table_key, name);
    SHAROES_ASSIGN_OR_RETURN(Bytes plain,
                             engine_->SymDecrypt(row_key, enc_row));
    BinaryReader r(plain);
    SHAROES_ASSIGN_OR_RETURN(RowRef row, RowRef::ReadFrom(&r));
    SHAROES_RETURN_IF_ERROR(r.Finish("exec-only row"));
    return row;
  }
  return Status::NotFound("no entry named '" + name + "'");
}

namespace {
/// The associated data of a data block's AEAD seal: object identity plus
/// the cleartext header, so a valid tag pins (inode, block, key_gen,
/// write_gen) — a block replayed at another location or generation fails
/// authentication before any plaintext is produced.
Bytes DataBlockAad(fs::InodeNum inode, uint32_t block,
                   const ObjectCodec::DataBlockHeader& header) {
  BinaryWriter w;
  w.PutRaw(SigContext("data", inode, block));
  w.PutU32(header.key_gen);
  w.PutU64(header.write_gen);
  return w.Take();
}

/// A descriptor block's framing. `body` counts the bytes of key_gen |
/// write_gen | descriptor: what the signature covers after the context.
struct DescriptorObject {
  DataDescriptor desc;
  size_t body = 0;
  Bytes sig;
};

Result<DescriptorObject> ParseDescriptorObject(const Bytes& wire) {
  BinaryReader r(wire);
  DescriptorObject o;
  r.GetU32();  // key_gen and write_gen: read by PeekDataHeader, signed.
  r.GetU64();
  SHAROES_ASSIGN_OR_RETURN(o.desc, DataDescriptor::ReadFrom(&r));
  o.body = wire.size() - r.remaining();
  o.sig = r.GetBytes();
  SHAROES_RETURN_IF_ERROR(r.Finish("descriptor block"));
  return o;
}

/// A chunk block's framing.
struct ChunkObject {
  ObjectCodec::DataBlockHeader header;
  Bytes nonce, ct, tag, sig;
};

Result<ChunkObject> ParseChunkObject(const Bytes& wire) {
  BinaryReader r(wire);
  ChunkObject o;
  o.header.key_gen = r.GetU32();
  o.header.write_gen = r.GetU64();
  o.nonce = r.GetRaw(crypto::kAeadNonceSize);
  o.ct = r.GetBytes();
  o.tag = r.GetRaw(crypto::kAeadTagSize);
  o.sig = r.GetBytes();
  SHAROES_RETURN_IF_ERROR(r.Finish("data block envelope"));
  return o;
}

Bytes DescriptorSigned(fs::InodeNum inode, const Bytes& wire, size_t body) {
  Bytes out = SigContext("desc", inode, 0);
  out.insert(out.end(), wire.begin(), wire.begin() + body);
  return out;
}
}  // namespace

Bytes ObjectCodec::EncodeDescriptor(fs::InodeNum inode,
                                    const DataBlockHeader& header,
                                    const DataDescriptor& desc,
                                    const crypto::SigningKey& dsk) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  BinaryWriter w;
  w.PutU32(header.key_gen);
  w.PutU64(header.write_gen);
  desc.AppendTo(&w);
  // The one signature of a file write, unforgeable even by readers (who
  // hold the DEK and could mint valid AEAD chunks): through tag_root it
  // anchors every chunk block.
  w.PutBytes(engine_->Sign(dsk, DescriptorSigned(inode, w.data(), w.size())));
  return w.Take();
}

Result<DataDescriptor> ObjectCodec::DecodeDescriptor(
    fs::InodeNum inode, const Bytes& wire, const crypto::VerifyKey& dvk) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  SHAROES_ASSIGN_OR_RETURN(DescriptorObject o, ParseDescriptorObject(wire));
  if (!engine_->Verify(dvk, DescriptorSigned(inode, wire, o.body), o.sig)) {
    return Status::Corruption("descriptor signature verification failed");
  }
  return std::move(o.desc);
}

Bytes ObjectCodec::EncodeDataBlock(fs::InodeNum inode, uint32_t block,
                                   const DataBlockHeader& header,
                                   const Bytes& plaintext,
                                   const crypto::SymmetricKey& dek,
                                   Bytes* tag_out) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  crypto::CryptoEngine::AeadSealed sealed =
      engine_->AeadSeal(dek, DataBlockAad(inode, block, header), plaintext);
  if (tag_out != nullptr) *tag_out = sealed.tag;
  BinaryWriter w;
  w.PutU32(header.key_gen);
  w.PutU64(header.write_gen);
  w.PutRaw(sealed.nonce);
  w.PutBytes(sealed.ciphertext);
  w.PutRaw(sealed.tag);
  w.PutBytes(Bytes{});  // Chunk blocks are never signed.
  return w.Take();
}

Result<Bytes> ObjectCodec::DecodeDataBlock(fs::InodeNum inode, uint32_t block,
                                           const Bytes& wire,
                                           const crypto::SymmetricKey& dek,
                                           Bytes* tag_out) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  SHAROES_ASSIGN_OR_RETURN(ChunkObject o, ParseChunkObject(wire));
  if (!o.sig.empty()) {
    // A signature here is something the codec did not produce.
    return Status::Corruption("unexpected signature on chunk data block");
  }
  auto plain = engine_->AeadOpen(dek, DataBlockAad(inode, block, o.header),
                                 o.nonce, o.ct, o.tag);
  if (plain.ok() && tag_out != nullptr) *tag_out = std::move(o.tag);
  return plain;
}

Result<ObjectCodec::DataBlockHeader> ObjectCodec::PeekDataHeader(
    const Bytes& wire) {
  BinaryReader r(wire);
  DataBlockHeader header;
  header.key_gen = r.GetU32();
  header.write_gen = r.GetU64();
  if (!r.ok()) return Status::Corruption("truncated data block");
  return header;
}

Result<Bytes> ObjectCodec::PeekDataTag(const Bytes& wire) {
  SHAROES_ASSIGN_OR_RETURN(ChunkObject o, ParseChunkObject(wire));
  return std::move(o.tag);
}

bool ObjectCodec::IsDataObject(uint32_t block, const Bytes& wire) {
  return block == 0 ? ParseDescriptorObject(wire).ok()
                    : PeekDataTag(wire).ok();
}

Result<Bytes> ObjectCodec::EncodeRefBlock(const crypto::RsaPublicKey& pub,
                                          const PlainRef& ref) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  return engine_->PkEncrypt(pub, ref.Serialize());
}

Result<PlainRef> ObjectCodec::DecodeRefBlock(const crypto::RsaPrivateKey& priv,
                                             const Bytes& wire) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  SHAROES_ASSIGN_OR_RETURN(Bytes plain, engine_->PkDecrypt(priv, wire));
  return PlainRef::Deserialize(plain);
}

Result<Bytes> ObjectCodec::EncodeSuperblock(
    const crypto::RsaPublicKey& user_pub, const SuperblockPayload& payload) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  return engine_->PkEncrypt(user_pub, payload.Serialize());
}

Result<SuperblockPayload> ObjectCodec::DecodeSuperblock(
    const crypto::RsaPrivateKey& user_priv, const Bytes& wire) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  SHAROES_ASSIGN_OR_RETURN(Bytes plain, engine_->PkDecrypt(user_priv, wire));
  return SuperblockPayload::Deserialize(plain);
}

Result<Bytes> ObjectCodec::EncodeGroupKeyBlock(
    const crypto::RsaPublicKey& member_pub, const GroupSecret& secret) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  return engine_->PkEncrypt(member_pub, secret.Serialize());
}

Result<GroupSecret> ObjectCodec::DecodeGroupKeyBlock(
    const crypto::RsaPrivateKey& member_priv, const Bytes& wire) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  SHAROES_ASSIGN_OR_RETURN(Bytes plain,
                           engine_->PkDecrypt(member_priv, wire));
  return GroupSecret::Deserialize(plain);
}

}  // namespace sharoes::core
