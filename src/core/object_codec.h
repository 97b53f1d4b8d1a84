// ObjectCodec: every cryptographic transformation between logical
// filesystem state and the encrypted blobs the SSP stores.
//
//   metadata replica  = Sign_MSK( CTR_MEK(serialized CAP view) )
//   table copy        = Sign_DSK( CTR_TK(rendered rows) ), where rendering
//                       follows the copy's TableView (full / names-only /
//                       per-row encryption for exec-only CAPs)
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

/// A decoded directory-table copy as seen through one CAP.
struct DecodedTable {
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

  /// Cleartext per-block header: `key_gen` lets readers pick dek vs.
  /// dek_next (lazy revocation) before decrypting; `write_gen` is the
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

  /// Appends a put for every metadata replica of the object. `dek_gen` and
  /// `dek_next` carry the data-key rotation state (chmod).
  void RenderReplicas(const fs::InodeAttrs& attrs,
                      const std::vector<ReplicaSpec>& specs,
                      const ObjectKeyBundle& bundle,
                      std::vector<ssp::Request>* out, uint32_t dek_gen = 0,
                      const std::optional<crypto::SymmetricKey>& dek_next =
                          std::nullopt);

  /// What a directory writer keeps of its own copy after rendering: the
  /// copy's wire size, and its logical view when that view is kFull.
  struct ReaderCopy {
    Selector selector = kOtherSelector;
    size_t wire_size = 0;
    std::optional<DecodedTable> full;
  };

  /// Appends puts for a directory's tables: every CAP copy, then the
  /// master, then the split blocks the copies need. An empty `master`
  /// renders a new directory. When `reader` is non-null, the copy with
  /// `reader->selector` is reported back through it.
  Status RenderDirTables(fs::InodeNum dir_inode, const OwnershipInfo& info,
                         const MasterTable& master,
                         const ObjectKeyBundle& bundle,
                         std::vector<ssp::Request>* out,
                         ReaderCopy* reader = nullptr);

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
  /// splits `content` into chunks, seals the chunk blocks not in `kept`
  /// (null: none kept), then signs the descriptor whose Merkle root covers
  /// every chunk tag. Appends the puts in store order: the descriptor
  /// (block 0), then the sealed chunk blocks in index order.
  RenderedFile RenderFile(fs::InodeNum inode, const Bytes& content,
                          size_t block_size, const DataBlockHeader& header,
                          const crypto::SymmetricKey& dek,
                          const crypto::SigningKey& dsk,
                          const std::map<uint32_t, KeptBlock>* kept,
                          std::vector<ssp::Request>* out);

  // ----- Metadata replicas -----

  /// Builds the logical CAP view of a metadata object (no crypto).
  /// `dek_gen` is the current data-key generation; `dek_next` (lazy
  /// revocation) is exposed to every CAP that holds the DEK.
  static MetadataView BuildView(const ReplicaSpec& spec,
                                const fs::InodeAttrs& attrs,
                                const ObjectKeyBundle& bundle,
                                uint32_t dek_gen = 0,
                                const std::optional<crypto::SymmetricKey>&
                                    dek_next = std::nullopt);

  /// Builds and seals one CAP view of a metadata object.
  Bytes EncodeMetadataReplica(const ReplicaSpec& spec,
                              const fs::InodeAttrs& attrs,
                              const ObjectKeyBundle& bundle,
                              uint32_t dek_gen = 0,
                              const std::optional<crypto::SymmetricKey>&
                                  dek_next = std::nullopt);

  /// Verifies (MVK), decrypts (MEK) and parses a metadata replica.
  /// IntegrityError on bad signature; Corruption on undecodable bytes;
  /// also rejects replicas whose embedded inode does not match.
  Result<MetadataView> DecodeMetadataReplica(fs::InodeNum inode,
                                             Selector selector,
                                             const Bytes& wire,
                                             const crypto::SymmetricKey& mek,
                                             const crypto::VerifyKey& mvk);

  // ----- Directory tables -----

  /// Renders, seals and signs one table copy from the master table.
  /// `copy_selector` identifies both the copy and the CAP whose TableView
  /// applies; `universe` is the copy's reader set (decides row splits).
  /// Any split blocks that must be (re)stored are appended to `blocks`.
  Result<Bytes> EncodeTableCopy(fs::InodeNum dir_inode, Selector copy_selector,
                                TableView view, const MasterTable& master,
                                const std::vector<fs::UserId>& universe,
                                const ObjectKeyBundle& bundle,
                                std::vector<PendingSplitBlock>* blocks);

  /// Encodes the writer-only master copy.
  Bytes EncodeMasterTable(fs::InodeNum dir_inode, const MasterTable& master,
                          const ObjectKeyBundle& bundle);

  /// Verifies (DVK), decrypts (table key) and parses a table copy.
  Result<DecodedTable> DecodeTableCopy(fs::InodeNum dir_inode,
                                       Selector copy_selector,
                                       const Bytes& wire,
                                       const crypto::SymmetricKey& table_key,
                                       const crypto::VerifyKey& dvk);

  Result<MasterTable> DecodeMasterTable(fs::InodeNum dir_inode,
                                        const Bytes& wire,
                                        const crypto::SymmetricKey& table_key,
                                        const crypto::VerifyKey& dvk);

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
  /// Renders the *logical* kFull view of a master table (no encryption,
  /// no cost charges): a writer's own decoded copy after it has already
  /// produced and paid for the encrypted copies.
  Result<DecodedTable> RenderFullTableView(
      const MasterTable& master, const std::vector<fs::UserId>& universe);
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
