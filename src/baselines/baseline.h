// The four comparison systems of the paper's evaluation (§V). They share
// with SHAROES the one client front end (core::FsClient: write buffers,
// path rules, the per-op charge, every SSP exchange and the mutating-batch
// reply rule), the SSP and the simulated network, so measured differences
// come only from their security designs:
//
//   NO-ENC-MD-D : no encryption at all — the networking/implementation
//                 baseline for a wide-area filesystem.
//   NO-ENC-MD   : plaintext metadata, AES-encrypted data.
//   PUBLIC      : metadata objects encrypted *wholesale* with each
//                 authorized user's public key (SiRiUS / SNAD / Farsite
//                 style); every stat pays private-key decryptions for
//                 every RSA block of the object.
//   PUB-OPT     : metadata encrypted with a per-object symmetric key K,
//                 K wrapped with each user's public key; every stat pays
//                 exactly one private-key operation.
//
// These baselines implement the weaker sharing model of the related work
// (file-level read/write only; no directory CAPs, no exec-only): their
// directory tables are protected by the directory's DEK alone, and
// permission checks are purely client-side.
//
// Baseline metadata objects are padded to a configurable size standing in
// for the 2048-bit signing/freshness key material those systems store in
// metadata (SiRiUS: file-sign + metadata-freshness key pairs). The pad
// size drives the RSA block count, which is the dominant PUBLIC cost; the
// default (3 KiB) matches the per-stat cost implied by the paper's
// Figure 9 (see EXPERIMENTS.md).

#ifndef SHAROES_BASELINES_BASELINE_H_
#define SHAROES_BASELINES_BASELINE_H_

#include <string>

#include "core/fs_client.h"
#include "core/identity.h"
#include "core/migration.h"
#include "crypto/keys.h"
#include "fs/dir_table.h"
#include "ssp/ssp_server.h"

namespace sharoes::baselines {

enum class SecurityMode {
  kNoEncMdD = 0,  // Nothing encrypted.
  kNoEncMd = 1,   // Data encrypted, metadata plaintext.
  kPublic = 2,    // Metadata RSA-encrypted per user.
  kPubOpt = 3,    // Metadata AES-encrypted, key RSA-wrapped per user.
};

std::string SecurityModeName(SecurityMode mode);

/// The logical metadata object of a baseline system.
struct BaselineRecord {
  fs::InodeAttrs attrs;
  Bytes dek;               // Data key; empty in kNoEncMdD.
  Bytes signing_material;  // Pad standing for DSK/DVK-class key blobs.

  Bytes Serialize() const;
  static Result<BaselineRecord> Deserialize(const Bytes& data);
};

struct BaselineOptions {
  SecurityMode mode = SecurityMode::kNoEncMdD;
  size_t cache_bytes = 64ull << 20;
};

/// The one writer of the baseline layout, shared by the provisioner and
/// the client: records, directory tables and file blocks.
class BaselineCodec {
 public:
  BaselineCodec(const core::IdentityDirectory* identity,
                crypto::CryptoEngine* engine, const BaselineOptions& options)
      : identity_(identity), engine_(engine), options_(options) {}

  /// A new object's record: a fresh DEK in the encrypting modes and the
  /// key-material pad in PUBLIC / PUB-OPT.
  BaselineRecord NewRecord(const fs::InodeAttrs& attrs);
  /// Appends the puts that store a record (mode-specific: one plaintext
  /// put, one sealed put + N wraps, or N per-user copies).
  Status RecordPuts(const BaselineRecord& record,
                    std::vector<ssp::Request>* out);
  /// The put of a directory table, sealed under the directory's DEK into
  /// the directory's data block 0.
  ssp::Request TablePut(const BaselineRecord& dir, const fs::DirTable& table);
  /// Appends the puts of a file's content: block 1 carries the descriptor
  /// and the first chunk, blocks 2.. the rest. `plain_out`, when non-null,
  /// receives each block's plaintext in the same order.
  void FilePuts(fs::InodeNum inode, const Bytes& dek, const Bytes& content,
                std::vector<ssp::Request>* out,
                std::vector<Bytes>* plain_out = nullptr);

 private:
  Bytes Seal(const Bytes& dek, const Bytes& plain);

  const core::IdentityDirectory* identity_;
  crypto::CryptoEngine* engine_;
  BaselineOptions options_;
};

/// Provisions a baseline filesystem at the SSP (the migration-tool
/// equivalent for the comparison systems).
class BaselineProvisioner {
 public:
  BaselineProvisioner(const core::IdentityDirectory* identity,
                      ssp::SspServer* server, crypto::CryptoEngine* engine,
                      const BaselineOptions& options);

  Status Migrate(const core::LocalNode& root);

 private:
  Status MigrateNode(const core::LocalNode& spec, fs::InodeNum inode);

  ssp::SspServer* server_;
  BaselineCodec codec_;
  fs::InodeNum next_inode_ = fs::kRootInode;
};

/// The baseline client filesystem: the FsClient hooks over the per-mode
/// records above. Permission checks are client-side. A read costs one
/// round trip per record (PUB-OPT batches the sealed record with the
/// wrapped key), per directory table and for block 1 with the descriptor,
/// plus one batch for the rest of a file's blocks.
class BaselineClient : public core::FsClient {
 public:
  BaselineClient(fs::UserId uid, crypto::RsaPrivateKey user_private_key,
                 const core::IdentityDirectory* identity,
                 ssp::SspChannel* conn, crypto::CryptoEngine* engine,
                 const BaselineOptions& options);

 private:
  // --- FsClient hooks (core/fs_client.h) ---
  Status OpenSuperblock() override;
  Result<fs::InodeAttrs> Stat(const std::string& path) override;
  Result<std::vector<std::string>> ListDir(const std::string& path) override;
  Result<Bytes> ReadFile(const std::string& path) override;
  Result<fs::InodeNum> OpenForWrite(const std::string& path) override;
  Status FlushBuffer(const std::string& path, const WriteBuffer& buf) override;
  Status CreateObject(const std::string& path, fs::FileType type,
                      const core::CreateOptions& opts) override;
  Status RemoveObject(const std::string& path, fs::FileType type) override;
  Status RenameEntry(const std::string& from, const fs::SplitParent& src,
                     const std::string& to,
                     const fs::SplitParent& dst) override;
  Status ChangeMode(const std::string& path, fs::Mode mode) override;
  void InvalidateInode(fs::InodeNum inode) override;

  Result<BaselineRecord> FetchRecord(fs::InodeNum inode);
  Result<fs::DirTable> FetchTable(const BaselineRecord& dir);
  /// The record of the object at `path`, descending from the root.
  Result<BaselineRecord> ResolveRecord(const std::string& path);
  Result<Bytes> FetchFileContent(const BaselineRecord& record);

  BaselineOptions options_;
  BaselineCodec codec_;
};

}  // namespace sharoes::baselines

#endif  // SHAROES_BASELINES_BASELINE_H_
