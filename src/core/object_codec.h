// ObjectCodec: every cryptographic transformation between logical
// filesystem state and the encrypted blobs the SSP stores.
//
//   metadata replica  = Sign_MSK( CTR_MEK(serialized CAP view) )
//   table head        = Sign_DSK( CTR_TK(depth) ), one per copy that has
//                       rows (DESIGN.md §18)
//   table bucket      = depth | Sign_DSK( CTR_TK(view | rendered rows) ):
//                       the rows whose names hash to it, rendered per the
//                       copy's TableView (full / names-only / per-row
//                       encryption for exec-only CAPs)
//   master head,
//   master bucket     = AES-GCM_MK( depth ), depth | AES-GCM_MK( entries ):
//                       only writers hold MK, and they hold the DSK too
//   data block 0      = Sign_DSK( header | DataDescriptor ), cleartext
//   data block k+1    = AES-GCM_DEK( chunk k ), anchored by the Merkle
//                       root inside the signed descriptor
//   superblock,
//   split blocks,
//   group key blocks  = RSA to the recipient's public key
//
// Signatures bind the object identity (kind, inode, selector/block) so a
// malicious SSP cannot swap blobs between locations.
//
// The codec is also the one writer of the on-SSP layout: the provisioner
// and the client decide *when* to write, and render every object through
// NewBundle / RenderReplicas / RenderDirTables / RenderFile, which return
// the SSP puts in store order with engine calls (key generation, nonces,
// signatures) in one fixed order.

#ifndef SHAROES_CORE_OBJECT_CODEC_H_
#define SHAROES_CORE_OBJECT_CODEC_H_

#include <string>
#include <vector>

#include "core/refs.h"
#include "ssp/message.h"

namespace sharoes::core {

/// A split-point block the table renderer asks the caller to store:
/// either per-user (RSA to the user) or per-group (RSA to the group key).
struct PendingSplitBlock {
  bool is_group = false;
  uint32_t id = 0;  // uid, or GroupBlockKey(gid) for group blocks.
  fs::InodeNum child_inode = fs::kInvalidInode;
  Bytes wire;
};

/// A stored table's signed head: the depth d of its 2^d buckets. Each
/// bucket carries its own view, so a chmod that changes a copy's view
/// leaves no head that contradicts the buckets. A kNone copy has neither.
struct TableHead {
  uint8_t depth = 0;

  uint32_t buckets() const { return uint32_t{1} << depth; }
};

/// A directory's master table as its writer holds it: every entry, and the
/// bucket depth its stored tables are rendered at.
struct StoredMaster {
  MasterTable table;
  uint8_t depth = 0;
};

/// A decoded bucket of a directory-table copy as seen through one CAP.
struct DecodedTable {
  /// The view the bucket was rendered in.
  TableView view = TableView::kNone;
  /// kFull / kNamesOnly: visible names in table order.
  std::vector<std::string> names;
  /// kFull only: refs by name.
  std::map<std::string, RowRef> refs;
  /// kExecOnly only: opaque (row_id, encrypted row) pairs.
  std::vector<std::pair<Bytes, Bytes>> exec_rows;
};

class ObjectCodec {
 public:
  ObjectCodec(crypto::CryptoEngine* engine, const IdentityDirectory* dir,
              Scheme scheme)
      : engine_(engine), dir_(dir), scheme_(scheme) {}

  /// Cleartext per-block header: `key_gen` is the data-key generation the
  /// block was sealed under, so a reader whose view holds an older key
  /// learns of a revoking chmod before decrypting; `write_gen` is the
  /// file's write generation for freshness/rollback detection
  /// (SUNDR-style, the paper's §VIII future work). Both are associated
  /// data of a chunk block's AEAD seal and signed in the descriptor block,
  /// so no block can be replayed across key rotations or write
  /// generations.
  struct DataBlockHeader {
    uint32_t key_gen = 0;
    uint64_t write_gen = 0;
  };

  // ----- Layout rendering (every writer goes through these) -----

  /// Generates the key material of a new object with replicas `specs`:
  /// DSK/DVK, MSK/MVK, one MEK per replica, then the DEK (files) or one
  /// table key per copy plus the master's (directories).
  ObjectKeyBundle NewBundle(fs::FileType type,
                            const std::vector<ReplicaSpec>& specs);

  /// Appends a put for every metadata replica of the object. `dek_gen` is
  /// the data-key generation (a revoking chmod advances it).
  void RenderReplicas(const fs::InodeAttrs& attrs,
                      const std::vector<ReplicaSpec>& specs,
                      const ObjectKeyBundle& bundle,
                      std::vector<ssp::Request>* out, uint32_t dek_gen = 0);

  /// What a directory writer keeps of its own copy after rendering: the
  /// copy's head and, when its view is kFull, the logical content of every
  /// bucket with a wire size for each (the rendered size of the buckets
  /// this render wrote, an estimate for the others).
  struct ReaderCopy {
    Selector selector = kOtherSelector;
    TableHead head;
    std::vector<DecodedTable> buckets;
    std::vector<size_t> sizes;
  };

  /// Which part of a directory's tables one render writes.
  struct DirRender {
    /// The bucket depth of every table after the render.
    uint8_t depth = 0;
    /// Null: a full render (a new directory, a resize, a rekey): the head
    /// and every bucket of the master and of each copy whose view is not
    /// kNone, plus a delete for each bucket a shrink from `stored_depth`
    /// leaves behind. Otherwise only the buckets that hold one of these
    /// names, in the master and in every copy that has buckets; heads are
    /// not rewritten.
    const std::vector<std::string>* changed = nullptr;
    uint8_t stored_depth = 0;
    /// When non-null, the copy with `reader->selector` is reported back.
    ReaderCopy* reader = nullptr;
  };

  /// Hysteresis of the bucket depth: a table grows when it averages more
  /// than kGrowLoad entries per bucket and shrinks below kShrinkLoad.
  static constexpr size_t kGrowLoad = 8;
  static constexpr size_t kShrinkLoad = 2;
  static constexpr uint8_t kMaxTableDepth = 20;
  /// The depth a table of `entries` is first rendered at: the least d
  /// with entries <= kGrowLoad * 2^d.
  static uint8_t FreshDepth(size_t entries);
  /// The depth after an update to `entries`: `depth` while the average
  /// load stays within [kShrinkLoad, kGrowLoad], FreshDepth otherwise.
  static uint8_t NextDepth(uint8_t depth, size_t entries);
  /// The bucket of `name` among 2^depth in a table keyed by `table_key`:
  /// the low bits of the keyed row id exec-only copies already derive.
  static uint32_t BucketOf(const crypto::SymmetricKey& table_key,
                           const std::string& name, uint8_t depth);
  /// The bucket of an exec-only row among 2^depth, from its row id.
  static uint32_t RowIdBucket(const Bytes& row_id, uint8_t depth);

  /// Appends puts for a directory's tables, in store order: per CAP copy
  /// that has rows its head and buckets, then the master's, then the
  /// deletes of a shrink, then the split blocks the rendered rows need.
  Status RenderDirTables(fs::InodeNum dir_inode, const OwnershipInfo& info,
                         const MasterTable& master,
                         const ObjectKeyBundle& bundle,
                         std::vector<ssp::Request>* out,
                         const DirRender& render);

  /// The parent-table row for a child object.
  static MasterEntry EntryFor(const std::string& name,
                              const fs::InodeAttrs& attrs,
                              const ObjectKeyBundle& bundle);

  /// A chunk block a write leaves as stored: the generation it was written
  /// at and its AEAD tag (the Merkle leaf the new descriptor commits to).
  struct KeptBlock {
    uint64_t gen = 0;
    Bytes tag;
  };
  /// One chunk block a file write sealed, for the writer's cache.
  struct SealedBlock {
    uint32_t index = 0;
    Bytes plaintext;  // The block's chunk.
    Bytes tag;
    size_t wire_size = 0;
  };
  struct RenderedFile {
    DataDescriptor desc;
    size_t desc_wire_size = 0;  // Block 0's size on the wire.
    /// Sealed chunk blocks in index order.
    std::vector<SealedBlock> sealed;
  };

  /// Renders one file write under `header` (key and write generation):
  /// splits `content` into the chunks that end at `chunk_ends` (ascending,
  /// the last at content.size(), none longer than kBlockSize; see
  /// PackedChunkEnds), seals the chunk blocks not in `kept` (null: none
  /// kept), then signs the descriptor whose Merkle root covers every chunk
  /// tag. Appends the puts in store order: the descriptor (block 0), then
  /// the sealed chunk blocks in index order.
  RenderedFile RenderFile(fs::InodeNum inode, const Bytes& content,
                          const std::vector<size_t>& chunk_ends,
                          const DataBlockHeader& header,
                          const crypto::SymmetricKey& dek,
                          const crypto::SigningKey& dsk,
                          const std::map<uint32_t, KeptBlock>* kept,
                          std::vector<ssp::Request>* out);

  // ----- Metadata replicas -----

  /// Builds the logical CAP view of a metadata object (no crypto).
  /// `dek_gen` is the current data-key generation.
  static MetadataView BuildView(const ReplicaSpec& spec,
                                const fs::InodeAttrs& attrs,
                                const ObjectKeyBundle& bundle,
                                uint32_t dek_gen = 0);

  /// Builds and seals one CAP view of a metadata object.
  Bytes EncodeMetadataReplica(const ReplicaSpec& spec,
                              const fs::InodeAttrs& attrs,
                              const ObjectKeyBundle& bundle,
                              uint32_t dek_gen = 0);

  /// Verifies (MVK), decrypts (MEK) and parses a metadata replica.
  /// IntegrityError on bad signature; Corruption on undecodable bytes;
  /// also rejects replicas whose embedded inode does not match.
  Result<MetadataView> DecodeMetadataReplica(fs::InodeNum inode,
                                             Selector selector,
                                             const Bytes& wire,
                                             const crypto::SymmetricKey& mek,
                                             const crypto::VerifyKey& mvk);

  // ----- Directory tables (DESIGN.md §18) -----

  /// Seals and signs a table head (the master's is AEAD-sealed instead,
  /// see SealTable):
  ///   wire   = envelope(sealed depth, sig)
  ///   signed = SigContext("thead", dir_inode, copy) | sealed
  Bytes EncodeTableHead(fs::InodeNum dir_inode, Selector copy,
                        const TableHead& head,
                        const crypto::SymmetricKey& table_key,
                        const crypto::SigningKey& dsk);
  /// Every failure — bad framing, a bad signature, a depth out of range —
  /// is Status::Corruption.
  Result<TableHead> DecodeTableHead(fs::InodeNum dir_inode, Selector copy,
                                    const Bytes& wire,
                                    const crypto::SymmetricKey& table_key,
                                    const crypto::VerifyKey& dvk);

  /// Renders, seals and signs bucket `index` of a copy: `rows`, the
  /// master's entries whose names hash there, rendered per `view`.
  /// `universe` is the copy's reader set (decides row splits); split
  /// blocks the rows need are appended to `blocks`.
  ///   wire   = depth | envelope(sealed view | rows, sig)
  ///   signed = BucketContext(dir_inode, copy, depth, index) | sealed
  Result<Bytes> EncodeTableBucket(fs::InodeNum dir_inode, Selector copy,
                                  TableView view, uint8_t depth,
                                  uint32_t index, const MasterTable& rows,
                                  const std::vector<fs::UserId>& universe,
                                  const ObjectKeyBundle& bundle,
                                  std::vector<PendingSplitBlock>* blocks);
  /// Bucket `index` of the writer-only master: its `rows`.
  Bytes EncodeMasterBucket(fs::InodeNum dir_inode, uint8_t depth,
                           uint32_t index, const MasterTable& rows,
                           const ObjectKeyBundle& bundle);
  /// The depth a bucket was rendered at, from its cleartext first byte:
  /// a reader whose cached head names another depth re-fetches the head.
  static Result<uint8_t> PeekBucketDepth(const Bytes& wire);
  /// Verifies (DVK), decrypts (table key) and parses bucket `index` of a
  /// copy whose head says `depth`. A bucket signed for this index at
  /// another depth is what a writer whose cached depth predates a resize
  /// leaves: it reads as stale content, keeping only the rows that hash to
  /// `index` at `depth`. Every failure — a bucket rendered for another
  /// directory, copy or index, a rewritten depth byte, bad framing — is
  /// Status::Corruption.
  Result<DecodedTable> DecodeTableBucket(fs::InodeNum dir_inode,
                                         Selector copy, uint8_t depth,
                                         uint32_t index, const Bytes& wire,
                                         const crypto::SymmetricKey& table_key,
                                         const crypto::VerifyKey& dvk);
  /// The master's entries in bucket `index`; depth and failures as above.
  Result<MasterTable> DecodeMasterBucket(fs::InodeNum dir_inode,
                                         uint8_t depth, uint32_t index,
                                         const Bytes& wire,
                                         const crypto::SymmetricKey& table_key);

  /// Resolves `name` inside an exec-only copy by deriving H_DEK(name)
  /// (paper §III-A). NotFound if no row matches.
  Result<RowRef> ExecOnlyLookup(const DecodedTable& table,
                                const crypto::SymmetricKey& table_key,
                                const std::string& name);

  // ----- File data -----

  /// Signs the descriptor block, block 0 (DESIGN.md §13):
  ///   wire   = key_gen | write_gen | DataDescriptor | sig
  ///   signed = SigContext("desc", inode, 0) | key_gen | write_gen |
  ///            DataDescriptor
  /// It is not encrypted: everything in it the SSP already sees from the
  /// chunk blocks (their sizes, headers and tags).
  Bytes EncodeDescriptor(fs::InodeNum inode, const DataBlockHeader& header,
                         const DataDescriptor& desc,
                         const crypto::SigningKey& dsk);
  /// Verifies (DVK) and parses a descriptor block. Every failure — bad
  /// framing or a bad signature — is Status::Corruption.
  Result<DataDescriptor> DecodeDescriptor(fs::InodeNum inode,
                                          const Bytes& wire,
                                          const crypto::VerifyKey& dvk);

  /// Seals one chunk block, block >= 1 (DESIGN.md §13):
  ///   wire = key_gen | write_gen | nonce | GCM ciphertext | tag | sig
  ///   AAD  = SigContext("data", inode, block) | key_gen | write_gen
  /// The signature field is always empty: a chunk's integrity anchors
  /// through the Merkle root in the signed descriptor. `tag_out`, when
  /// non-null, receives the block's AEAD tag (its Merkle leaf).
  Bytes EncodeDataBlock(fs::InodeNum inode, uint32_t block,
                        const DataBlockHeader& header, const Bytes& plaintext,
                        const crypto::SymmetricKey& dek,
                        Bytes* tag_out = nullptr);
  /// Every integrity failure — bad framing, bad tag, unexpected
  /// signature — is Status::Corruption; no plaintext is ever returned on
  /// failure. `tag_out`, when non-null, receives the verified AEAD tag.
  Result<Bytes> DecodeDataBlock(fs::InodeNum inode, uint32_t block,
                                const Bytes& wire,
                                const crypto::SymmetricKey& dek,
                                Bytes* tag_out = nullptr);
  /// Reads the cleartext header of an encoded data block (descriptor or
  /// chunk: both start with it).
  static Result<DataBlockHeader> PeekDataHeader(const Bytes& wire);
  /// Reads the AEAD tag (the Merkle leaf) of an encoded chunk block
  /// without decrypting; Corruption unless the whole framing parses.
  static Result<Bytes> PeekDataTag(const Bytes& wire);
  /// True when `wire` has the framing of the codec's object for data
  /// block `block` (the descriptor for block 0, a chunk otherwise). No
  /// cryptography is checked.
  static bool IsDataObject(uint32_t block, const Bytes& wire);

  // ----- RSA-wrapped bootstrap blocks -----

  /// A split block: the ref wrapped to one user's or one group's key.
  Result<Bytes> EncodeRefBlock(const crypto::RsaPublicKey& pub,
                               const PlainRef& ref);
  Result<PlainRef> DecodeRefBlock(const crypto::RsaPrivateKey& priv,
                                  const Bytes& wire);

  Result<Bytes> EncodeSuperblock(const crypto::RsaPublicKey& user_pub,
                                 const SuperblockPayload& payload);
  Result<SuperblockPayload> DecodeSuperblock(
      const crypto::RsaPrivateKey& user_priv, const Bytes& wire);

  Result<Bytes> EncodeGroupKeyBlock(const crypto::RsaPublicKey& member_pub,
                                    const GroupSecret& secret);
  Result<GroupSecret> DecodeGroupKeyBlock(
      const crypto::RsaPrivateKey& member_priv, const Bytes& wire);

  crypto::CryptoEngine* engine() { return engine_; }
  Scheme scheme() const { return scheme_; }
  const IdentityDirectory* identity() const { return dir_; }

 private:
  Bytes SealAndSign(const Bytes& context, const Bytes& payload,
                    const crypto::SymmetricKey& key,
                    const crypto::SigningKey& signer);
  Result<Bytes> VerifyAndOpen(const Bytes& context, const Bytes& wire,
                              const crypto::SymmetricKey& key,
                              const crypto::VerifyKey& verifier,
                              const std::string& what);
  /// Renders the *logical* kFull view of every bucket of a copy (no
  /// encryption, no cost charges): a writer's own decoded copy after it
  /// has already produced and paid for the encrypted buckets.
  Status RenderFullTableView(const MasterTable& master,
                             const std::vector<fs::UserId>& universe,
                             const crypto::SymmetricKey& table_key,
                             ReaderCopy* reader);
  /// Seals a table object's payload under `context`: signed with the DSK
  /// for a copy, an AES-GCM tag under the master key for the master. Only
  /// the directory's writers hold the master key, and they hold the DSK
  /// too, so the tag authenticates the master to them as a signature
  /// would, without a private-key operation per head and bucket.
  Bytes SealTable(Selector copy, const Bytes& context, const Bytes& payload,
                  const crypto::SymmetricKey& table_key,
                  const crypto::SigningKey& dsk);
  /// Opens what SealTable sealed; Corruption on every failure.
  Result<Bytes> OpenTable(Selector copy, const Bytes& context,
                          const Bytes& wire,
                          const crypto::SymmetricKey& table_key,
                          const crypto::VerifyKey& dvk,
                          const std::string& what);
  /// Signs and seals one bucket payload.
  Bytes SealBucket(fs::InodeNum dir_inode, Selector copy, uint8_t depth,
                   uint32_t index, const Bytes& payload,
                   const crypto::SymmetricKey& table_key,
                   const crypto::SigningKey& dsk);
  /// Verifies and opens bucket `index` at the depth its first byte names;
  /// Corruption on every failure.
  Result<Bytes> OpenBucket(fs::InodeNum dir_inode, Selector copy,
                           uint32_t index, const Bytes& wire,
                           const crypto::SymmetricKey& table_key,
                           const crypto::VerifyKey& dvk);
  /// Builds a RowRef for one master entry as seen by `universe`,
  /// emitting split blocks when readers diverge.
  Result<RowRef> RenderRow(const MasterEntry& entry,
                           const std::vector<fs::UserId>& universe,
                           std::vector<PendingSplitBlock>* blocks);

  crypto::CryptoEngine* engine_;    // Not owned.
  const IdentityDirectory* dir_;    // Not owned.
  Scheme scheme_;
};

/// The signing context for an object ("kind | inode | id").
Bytes SigContext(std::string_view kind, fs::InodeNum inode, uint64_t id);

}  // namespace sharoes::core

#endif  // SHAROES_CORE_OBJECT_CODEC_H_
