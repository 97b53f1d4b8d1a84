// Core data structures flowing between the client, the codec and the SSP:
// object key bundles, CAP metadata views, in-band child references,
// directory master tables and superblock payloads.
//
// These are the concrete realizations of the paper's Figures 2 and 3:
// a metadata object that carries keys alongside attributes, and a
// directory table whose rows carry the keys of their children.

#ifndef SHAROES_CORE_REFS_H_
#define SHAROES_CORE_REFS_H_

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/cap_class.h"
#include "crypto/keys.h"
#include "fs/metadata.h"
#include "util/result.h"

namespace sharoes::core {

/// The complete key material of one filesystem object, known to its
/// creator and owner. Per-CAP views expose subsets of it.
struct ObjectKeyBundle {
  /// File data key (files only; directories key their tables per copy).
  crypto::SymmetricKey dek;
  /// Data signing / verification pair (DSK / DVK).
  crypto::SigningKeyPair data;
  /// Metadata signing / verification pair (MSK / MVK).
  crypto::SigningKeyPair meta;
  /// MEK per metadata replica selector.
  std::map<Selector, crypto::SymmetricKey> meks;
  /// Directories: table key per table copy selector (incl. the master).
  std::map<Selector, crypto::SymmetricKey> table_keys;
};

/// A fully resolved in-band reference to one replica of an object:
/// everything needed to fetch, decrypt and verify it.
struct PlainRef {
  fs::InodeNum inode = fs::kInvalidInode;
  fs::FileType type = fs::FileType::kFile;
  Selector selector = kOtherSelector;
  crypto::SymmetricKey mek;
  crypto::VerifyKey mvk;

  Bytes Serialize() const;
  static Result<PlainRef> Deserialize(const Bytes& data);
};

/// What a directory-table row hands a reader: either a resolved reference
/// or split-point guidance ("fetch your per-user block"; group members may
/// use the shared group block instead, paper §III-D.2).
struct RowRef {
  enum class Kind : uint8_t { kPlain = 0, kSplit = 1 };
  Kind kind = Kind::kPlain;
  fs::InodeNum inode = fs::kInvalidInode;
  fs::FileType type = fs::FileType::kFile;
  PlainRef plain;           // Valid when kind == kPlain.
  bool has_group_block = false;
  fs::GroupId gid = fs::kInvalidGroup;

  void AppendTo(BinaryWriter* w) const;
  static Result<RowRef> ReadFrom(BinaryReader* r);
};

/// One CAP view of a metadata object (paper Figure 2): the attributes
/// plus exactly the key fields this CAP exposes. Absent fields are the
/// implementation of the figure's "inaccessible" shading.
struct MetadataView {
  fs::InodeAttrs attrs;
  std::optional<crypto::SymmetricKey> dek;  // File data / this table copy.
  std::optional<crypto::SigningKey> dsk;
  std::optional<crypto::VerifyKey> dvk;
  std::optional<crypto::SigningKey> msk;
  std::optional<crypto::VerifyKey> mvk;     // Owner bundle only.
  /// Generation of `dek`; data blocks record the generation they were
  /// written under, so a reader holding a key a revoking chmod rotated
  /// away learns it before decrypting. The serialized view keeps a
  /// retired presence byte before it, always 0.
  uint32_t dek_gen = 0;
  /// Directory writer/owner CAPs: keys of every table copy.
  std::map<Selector, crypto::SymmetricKey> table_keys;
  /// Owner CAP: MEKs of every metadata replica (chmod maintenance).
  std::map<Selector, crypto::SymmetricKey> meks;

  bool CanReadData() const { return dek.has_value() && dvk.has_value(); }
  bool CanWriteData() const { return dek.has_value() && dsk.has_value(); }

  Bytes Serialize() const;
  static Result<MetadataView> Deserialize(const Bytes& data);

  /// Reassembles an ObjectKeyBundle from an owner view. Fails if this is
  /// not a full owner/management view.
  Result<ObjectKeyBundle> ToBundle() const;
};

/// One row of the writer-only master table of a directory: the canonical
/// record from which every per-CAP table copy is rendered.
struct MasterEntry {
  std::string name;
  fs::InodeNum inode = fs::kInvalidInode;
  OwnershipInfo child;
  Bytes mvk;  // Serialized VerifyKey of the child.
  std::map<Selector, Bytes> meks;  // Serialized MEK per child replica.

  void AppendTo(BinaryWriter* w) const;
  static Result<MasterEntry> ReadFrom(BinaryReader* r);
};

/// The canonical directory content (writer/owner-visible only).
struct MasterTable {
  std::vector<MasterEntry> entries;

  MasterEntry* Find(const std::string& name);
  Status Add(MasterEntry entry);
  Status Remove(const std::string& name);

  Bytes Serialize() const;
  static Result<MasterTable> Deserialize(const Bytes& data);
};

/// The per-user superblock payload (paper §III-C), RSA-encrypted to each
/// authorized user: the in-band bootstrap of the whole key hierarchy.
struct SuperblockPayload {
  fs::InodeNum root_inode = fs::kRootInode;
  PlainRef root_ref;

  Bytes Serialize() const;
  static Result<SuperblockPayload> Deserialize(const Bytes& data);
};

/// The group key block payload (paper §II-A), RSA-encrypted to each
/// member: the group's private key, fetched at login.
struct GroupSecret {
  fs::GroupId gid = fs::kInvalidGroup;
  crypto::RsaPrivateKey private_key;

  Bytes Serialize() const;
  static Result<GroupSecret> Deserialize(const Bytes& data);
};

/// Per-file data descriptor, the whole of data block 0: the paper keeps
/// file size out of metadata so plain writers (who hold no MSK) never
/// need to re-sign metadata.
///
/// Block 0 is the file's commit record. Chunk k of the content lives in
/// block k+1, so `block_count` is 1 + the chunk count (1 for an empty
/// file, which is the descriptor alone). Chunks hold at most kBlockSize
/// bytes each and the content is their concatenation in block order: a
/// packed file's chunks are ChunkRange's runs, and a file that took an
/// append keeps its old chunks and holds the appended bytes in short
/// chunks of their own (DESIGN.md §13). The descriptor stores no chunk
/// length; `block_count` is stored, never derived from `size`.
/// `write_gen` is the monotonically
/// increasing flush counter used for freshness/rollback detection (the
/// paper's §VIII future work, SUNDR-style). `block_gens[k]` records the
/// generation at which chunk k (block k+1) was last rewritten: the
/// paper's block division exists so writers "avoid re-encrypting entire
/// files after a write", and the vector lets readers verify exactly which
/// mix of block versions is current. `tag_root` is the Merkle root (crypto/merkle.h)
/// over the AEAD tags of the chunk blocks 1..block_count-1, in block
/// order (the all-zero root for an empty file). It rides in the
/// DSK-signed block 0 — not the metadata object, for the same reason as
/// `size`: plain writers hold no MSK — so the one signature a reader
/// verifies also commits to every chunk, and a cross-block splice or a
/// stale-but-consistent chunk set fails closed as Corruption.
struct DataDescriptor {
  uint64_t size = 0;
  uint32_t block_count = 0;
  uint64_t write_gen = 0;
  std::vector<uint64_t> block_gens;
  Bytes tag_root;

  /// The expected generation of block `idx` (block 0 is the descriptor
  /// itself and therefore always at the current write_gen).
  uint64_t GenOfBlock(uint32_t idx) const {
    if (idx == 0) return write_gen;
    return idx <= block_gens.size() ? block_gens[idx - 1] : write_gen;
  }

  void AppendTo(BinaryWriter* w) const;
  static Result<DataDescriptor> ReadFrom(BinaryReader* r);
};

/// The one chunk size of the on-SSP layout, for SHAROES and the
/// baselines alike: no chunk holds more than this many bytes, and each is
/// sealed into its own data block.
inline constexpr size_t kBlockSize = 4096;

/// The packed split of file content into chunks: chunk k is the k-th run
/// of kBlockSize bytes and is stored in block k+1. The baselines store
/// every file packed; SHAROES stores a file packed until an append gives
/// it short chunks (DataDescriptor). SHAROES stores no chunk for an empty
/// file; the baselines store one (possibly empty) chunk, because their
/// descriptor rides in it.
inline uint32_t ChunkCount(size_t size) {
  return static_cast<uint32_t>((size + kBlockSize - 1) / kBlockSize);
}
/// The baselines' block count: at least the one chunk carrying the
/// descriptor.
inline uint32_t BlockCount(size_t size) {
  return std::max<uint32_t>(1, ChunkCount(size));
}
/// The byte range [first, second) of chunk `idx` of a packed `size`-byte
/// file.
inline std::pair<size_t, size_t> ChunkRange(uint32_t idx, size_t size) {
  return {std::min(idx * kBlockSize, size),
          std::min((idx + 1) * kBlockSize, size)};
}
/// The end offsets of a packed `size`-byte file's chunks, in block order.
inline std::vector<size_t> PackedChunkEnds(size_t size) {
  std::vector<size_t> ends;
  for (uint32_t k = 0; k < ChunkCount(size); ++k) {
    ends.push_back(ChunkRange(k, size).second);
  }
  return ends;
}
/// The chunk ends of a file grown from chunks ending at `old_ends` (in
/// block order, the last at the old size) to `size` bytes, with at most
/// `bound` chunks (DESIGN.md §13): the old chunks as stored, then the new
/// bytes in chunks of at most kBlockSize. Past the bound, chunks k.. (from
/// byte begin_k) are re-packed into packed_k full chunks, for the k that
/// fits the bound and re-seals the fewest bytes per append it makes room
/// for, (size - begin_k) / (bound - (k + packed_k) + 1), the shorter tail
/// on a tie. k = 0 is the packed layout, which is also the answer when no
/// k fits.
std::vector<size_t> RepackTail(std::vector<size_t> old_ends, size_t size,
                               size_t bound);

/// Pseudo-user id namespace for group split blocks in the SSP's per-user
/// metadata keyspace.
constexpr uint32_t kGroupBlockFlag = 0x80000000;
inline uint32_t GroupBlockKey(fs::GroupId gid) { return kGroupBlockFlag | gid; }

}  // namespace sharoes::core

#endif  // SHAROES_CORE_REFS_H_
