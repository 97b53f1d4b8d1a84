#include "core/object_codec.h"

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
    uint32_t dek_gen, const std::optional<crypto::SymmetricKey>& dek_next) {
  for (const ReplicaSpec& spec : specs) {
    out->push_back(ssp::Request::PutMetadata(
        attrs.inode, spec.selector,
        EncodeMetadataReplica(spec, attrs, bundle, dek_gen, dek_next)));
  }
}

Status ObjectCodec::RenderDirTables(fs::InodeNum dir_inode,
                                    const OwnershipInfo& info,
                                    const MasterTable& master,
                                    const ObjectKeyBundle& bundle,
                                    std::vector<ssp::Request>* out,
                                    ReaderCopy* reader) {
  std::vector<PendingSplitBlock> blocks;
  std::vector<fs::UserId> reader_universe;
  bool reader_full = false;
  for (const ReplicaSpec& spec : ReplicasFor(info, scheme_, *dir_)) {
    std::vector<fs::UserId> universe =
        UniverseOf(info, spec.selector, scheme_, *dir_);
    TableView view = spec.Fields(fs::FileType::kDirectory).table_view;
    SHAROES_ASSIGN_OR_RETURN(
        Bytes wire, EncodeTableCopy(dir_inode, spec.selector, view, master,
                                    universe, bundle, &blocks));
    if (reader != nullptr && spec.selector == reader->selector) {
      reader->wire_size = wire.size();
      reader_full = view == TableView::kFull;
      reader_universe = std::move(universe);
    }
    out->push_back(ssp::Request::PutMetadata(
        dir_inode, TableSelector(spec.selector), std::move(wire)));
  }
  out->push_back(ssp::Request::PutMetadata(
      dir_inode, TableSelector(kMasterSelector),
      EncodeMasterTable(dir_inode, master, bundle)));
  for (PendingSplitBlock& b : blocks) {
    out->push_back(
        ssp::Request::PutUserMetadata(b.child_inode, b.id, std::move(b.wire)));
  }
  if (reader_full) {
    auto decoded = RenderFullTableView(master, reader_universe);
    if (decoded.ok()) reader->full = std::move(*decoded);
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
    fs::InodeNum inode, const Bytes& content, size_t block_size,
    const DataBlockHeader& header, const crypto::SymmetricKey& dek,
    const crypto::SigningKey& dsk, const std::map<uint32_t, KeptBlock>* kept,
    std::vector<ssp::Request>* out) {
  RenderedFile file;
  DataDescriptor& desc = file.desc;
  desc.size = content.size();
  desc.block_count = BlockCount(content.size(), block_size);
  desc.write_gen = header.write_gen;
  desc.block_gens.assign(desc.block_count, header.write_gen);
  // Tail blocks seal first: their AEAD tags are the Merkle leaves the
  // descriptor inside block 0 commits to.
  std::vector<Bytes> tail_tags(desc.block_count - 1);
  std::vector<Bytes> tail_wires(desc.block_count);
  for (uint32_t idx = 1; idx < desc.block_count; ++idx) {
    if (kept != nullptr) {
      auto keep = kept->find(idx);
      if (keep != kept->end()) {
        desc.block_gens[idx] = keep->second.gen;
        tail_tags[idx - 1] = keep->second.tag;
        continue;
      }
    }
    auto [begin, end] = BlockRange(idx, content.size(), block_size);
    Bytes chunk(content.begin() + begin, content.begin() + end);
    Bytes tag;
    tail_wires[idx] =
        EncodeDataBlock(inode, idx, header, chunk, dek, dsk, &tag);
    tail_tags[idx - 1] = tag;
    file.sealed.push_back(SealedBlock{idx, std::move(chunk), std::move(tag),
                                      tail_wires[idx].size()});
  }
  desc.tag_root = crypto::MerkleRoot(tail_tags);
  // Block 0 seals last, around the descriptor that now covers every tail.
  size_t end0 = BlockRange(0, content.size(), block_size).second;
  Bytes chunk0(content.begin(), content.begin() + end0);
  BinaryWriter w0;
  desc.AppendTo(&w0);
  w0.PutRaw(chunk0);
  Bytes wire0 = EncodeDataBlock(inode, 0, header, w0.Take(), dek, dsk);
  file.sealed.push_back(SealedBlock{0, std::move(chunk0), {}, wire0.size()});
  out->push_back(ssp::Request::PutData(inode, 0, std::move(wire0)));
  for (uint32_t idx = 1; idx < desc.block_count; ++idx) {
    if (!tail_wires[idx].empty()) {  // Kept blocks have no new wire.
      out->push_back(
          ssp::Request::PutData(inode, idx, std::move(tail_wires[idx])));
    }
  }
  return file;
}

MetadataView ObjectCodec::BuildView(
    const ReplicaSpec& spec, const fs::InodeAttrs& attrs,
    const ObjectKeyBundle& bundle, uint32_t dek_gen,
    const std::optional<crypto::SymmetricKey>& dek_next) {
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
    if (dek_next.has_value()) view.dek_next = dek_next;
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

Bytes ObjectCodec::EncodeMetadataReplica(
    const ReplicaSpec& spec, const fs::InodeAttrs& attrs,
    const ObjectKeyBundle& bundle, uint32_t dek_gen,
    const std::optional<crypto::SymmetricKey>& dek_next) {
  MetadataView view = BuildView(spec, attrs, bundle, dek_gen, dek_next);
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

Result<DecodedTable> ObjectCodec::RenderFullTableView(
    const MasterTable& master, const std::vector<fs::UserId>& universe) {
  DecodedTable t;
  t.view = TableView::kFull;
  for (const MasterEntry& e : master.entries) {
    SHAROES_ASSIGN_OR_RETURN(RowRef row,
                             RenderRow(e, universe, /*blocks=*/nullptr));
    t.names.push_back(e.name);
    t.refs[e.name] = std::move(row);
  }
  return t;
}

Result<Bytes> ObjectCodec::EncodeTableCopy(
    fs::InodeNum dir_inode, Selector copy_selector, TableView view,
    const MasterTable& master, const std::vector<fs::UserId>& universe,
    const ObjectKeyBundle& bundle, std::vector<PendingSplitBlock>* blocks) {
  auto key_it = bundle.table_keys.find(copy_selector);
  if (key_it == bundle.table_keys.end()) {
    return Status::Internal("missing table key for copy " +
                            std::to_string(copy_selector));
  }
  const crypto::SymmetricKey& table_key = key_it->second;

  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(view));
  // A zero-view copy exists but exposes nothing, not even the count.
  w.PutU32(view == TableView::kNone
               ? 0
               : static_cast<uint32_t>(master.entries.size()));
  switch (view) {
    case TableView::kNone:
      break;
    case TableView::kNamesOnly:
      for (const MasterEntry& e : master.entries) w.PutString(e.name);
      break;
    case TableView::kFull:
      for (const MasterEntry& e : master.entries) {
        SHAROES_ASSIGN_OR_RETURN(RowRef row, RenderRow(e, universe, blocks));
        w.PutString(e.name);
        row.AppendTo(&w);
      }
      break;
    case TableView::kExecOnly:
      for (const MasterEntry& e : master.entries) {
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
      }
      break;
  }
  return SealAndSign(SigContext("table", dir_inode, copy_selector), w.Take(),
                     table_key, bundle.data.sign);
}

Bytes ObjectCodec::EncodeMasterTable(fs::InodeNum dir_inode,
                                     const MasterTable& master,
                                     const ObjectKeyBundle& bundle) {
  auto it = bundle.table_keys.find(kMasterSelector);
  crypto::SymmetricKey key =
      it != bundle.table_keys.end() ? it->second : crypto::SymmetricKey{};
  return SealAndSign(SigContext("table", dir_inode, kMasterSelector),
                     master.Serialize(), key, bundle.data.sign);
}

Result<DecodedTable> ObjectCodec::DecodeTableCopy(
    fs::InodeNum dir_inode, Selector copy_selector, const Bytes& wire,
    const crypto::SymmetricKey& table_key, const crypto::VerifyKey& dvk) {
  SHAROES_ASSIGN_OR_RETURN(
      Bytes payload,
      VerifyAndOpen(SigContext("table", dir_inode, copy_selector), wire,
                    table_key, dvk, "table copy"));
  BinaryReader r(payload);
  DecodedTable t;
  uint8_t view = r.GetU8();
  if (r.ok() && view > static_cast<uint8_t>(TableView::kExecOnly)) {
    return Status::Corruption("bad table view kind");
  }
  t.view = static_cast<TableView>(view);
  uint32_t n = r.GetU32();
  if (!r.ok() || n > r.remaining()) {
    return Status::Corruption("truncated table copy");
  }
  switch (t.view) {
    case TableView::kNone:
      break;
    case TableView::kNamesOnly:
      for (uint32_t i = 0; i < n; ++i) t.names.push_back(r.GetString());
      break;
    case TableView::kFull:
      for (uint32_t i = 0; i < n; ++i) {
        std::string name = r.GetString();
        SHAROES_ASSIGN_OR_RETURN(RowRef row, RowRef::ReadFrom(&r));
        t.names.push_back(name);
        t.refs[name] = std::move(row);
      }
      break;
    case TableView::kExecOnly:
      for (uint32_t i = 0; i < n; ++i) {
        Bytes row_id = r.GetBytes();
        Bytes enc_row = r.GetBytes();
        t.exec_rows.emplace_back(std::move(row_id), std::move(enc_row));
      }
      break;
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("table copy"));
  return t;
}

Result<MasterTable> ObjectCodec::DecodeMasterTable(
    fs::InodeNum dir_inode, const Bytes& wire,
    const crypto::SymmetricKey& table_key, const crypto::VerifyKey& dvk) {
  SHAROES_ASSIGN_OR_RETURN(
      Bytes payload,
      VerifyAndOpen(SigContext("table", dir_inode, kMasterSelector), wire,
                    table_key, dvk, "master table"));
  return MasterTable::Deserialize(payload);
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

/// What block 0's DSK signature covers: AAD || nonce || ciphertext || tag.
Bytes BlockZeroSigned(const Bytes& aad, const Bytes& nonce, const Bytes& ct,
                      const Bytes& tag) {
  Bytes out = aad;
  Append(out, nonce);
  Append(out, ct);
  Append(out, tag);
  return out;
}
}  // namespace

Bytes ObjectCodec::EncodeDataBlock(fs::InodeNum inode, uint32_t block,
                                   const DataBlockHeader& header,
                                   const Bytes& plaintext,
                                   const crypto::SymmetricKey& dek,
                                   const crypto::SigningKey& dsk,
                                   Bytes* tag_out) {
  obs::PhaseScope crypto_phase(obs::Phase::kRenderEncrypt);
  Bytes aad = DataBlockAad(inode, block, header);
  crypto::CryptoEngine::AeadSealed sealed =
      engine_->AeadSeal(dek, aad, plaintext);
  Bytes sig;
  if (block == 0) {
    // Only block 0 is signed: its plaintext carries the DataDescriptor
    // whose tag_root commits to every tail block's tag, so one signature
    // (unforgeable even by readers, who hold the DEK and could mint
    // valid AEAD tags) anchors the whole file.
    sig = engine_->Sign(dsk, BlockZeroSigned(aad, sealed.nonce,
                                             sealed.ciphertext, sealed.tag));
  }
  if (tag_out != nullptr) *tag_out = sealed.tag;
  BinaryWriter w;
  w.PutU32(header.key_gen);
  w.PutU64(header.write_gen);
  w.PutRaw(sealed.nonce);
  w.PutBytes(sealed.ciphertext);
  w.PutRaw(sealed.tag);
  w.PutBytes(sig);
  return w.Take();
}

Result<Bytes> ObjectCodec::DecodeDataBlock(fs::InodeNum inode, uint32_t block,
                                           const Bytes& wire,
                                           const crypto::SymmetricKey& dek,
                                           const crypto::VerifyKey& dvk,
                                           Bytes* tag_out) {
  obs::PhaseScope crypto_phase(obs::Phase::kDecryptVerify);
  BinaryReader r(wire);
  DataBlockHeader header;
  header.key_gen = r.GetU32();
  header.write_gen = r.GetU64();
  Bytes nonce = r.GetRaw(crypto::kAeadNonceSize);
  Bytes ct = r.GetBytes();
  Bytes tag = r.GetRaw(crypto::kAeadTagSize);
  Bytes sig = r.GetBytes();
  SHAROES_RETURN_IF_ERROR(r.Finish("data block envelope"));
  Bytes aad = DataBlockAad(inode, block, header);
  if (block == 0) {
    if (!engine_->Verify(dvk, BlockZeroSigned(aad, nonce, ct, tag), sig)) {
      return Status::Corruption(
          "data block 0 signature verification failed");
    }
  } else if (!sig.empty()) {
    // Tail blocks are never signed; a signature here is something the
    // codec did not produce.
    return Status::Corruption("unexpected signature on tail data block");
  }
  auto plain = engine_->AeadOpen(dek, aad, nonce, ct, tag);
  if (plain.ok() && tag_out != nullptr) *tag_out = std::move(tag);
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
  BinaryReader r(wire);
  r.GetU32();
  r.GetU64();
  r.GetRaw(crypto::kAeadNonceSize);
  r.GetBytes();  // Ciphertext.
  Bytes tag = r.GetRaw(crypto::kAeadTagSize);
  if (!r.ok()) return Status::Corruption("truncated data block");
  return tag;
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
