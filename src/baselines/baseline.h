// The four comparison systems of the paper's evaluation (§V), sharing the
// SHAROES client/SSP/network substrate so measured differences come only
// from their security designs:
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

#include <map>
#include <memory>
#include <string>

#include "core/cache.h"
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
  size_t block_size = 4096;
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

/// The baseline client filesystem.
class BaselineClient : public core::FsClient {
 public:
  BaselineClient(fs::UserId uid, crypto::RsaPrivateKey user_private_key,
                 const core::IdentityDirectory* identity,
                 ssp::SspChannel* conn, crypto::CryptoEngine* engine,
                 const BaselineOptions& options);

  Status Mount() override;
  Result<fs::InodeAttrs> Getattr(const std::string& path) override;
  Status Mkdir(const std::string& path,
               const core::CreateOptions& opts) override;
  Status Create(const std::string& path,
                const core::CreateOptions& opts) override;
  Result<Bytes> Read(const std::string& path) override;
  Status Write(const std::string& path, const Bytes& content) override;
  Status Close(const std::string& path) override;
  Result<std::vector<std::string>> Readdir(const std::string& path) override;
  Status Chmod(const std::string& path, fs::Mode mode) override;
  Status Unlink(const std::string& path) override;
  Status Rmdir(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;

  core::LruCache& cache() { return cache_; }
  void DropCaches() { cache_.Clear(); }
  /// Drops one object's cached state, keeping the path prefix warm.
  Status EvictPath(const std::string& path);

 private:
  struct WriteBuffer {
    fs::InodeNum inode;
    Bytes content;
    bool dirty = false;
  };

  Result<BaselineRecord> FetchRecord(fs::InodeNum inode);
  Result<fs::DirTable> FetchTable(const BaselineRecord& dir);
  Result<fs::InodeNum> ResolveInode(const std::string& path,
                                    BaselineRecord* out_record);
  Status CreateObject(const std::string& path, fs::FileType type,
                      const core::CreateOptions& opts);
  Status RemoveObject(const std::string& path, fs::FileType type);
  Status FlushBuffer(WriteBuffer* buf, const BaselineRecord& record);
  Result<Bytes> FetchFileContent(const BaselineRecord& record);
  Status ExecuteBatch(std::vector<ssp::Request> requests);
  void ChargeClientOverhead();
  fs::InodeNum AllocateInode();
  void InvalidateInode(fs::InodeNum inode);

  fs::UserId uid_;
  fs::Principal principal_;
  crypto::RsaPrivateKey user_priv_;
  const core::IdentityDirectory* identity_;
  ssp::SspChannel* conn_;
  crypto::CryptoEngine* engine_;
  BaselineOptions options_;
  BaselineCodec codec_;
  core::LruCache cache_;
  bool mounted_ = false;
  std::map<std::string, WriteBuffer> write_buffers_;
  uint64_t inode_counter_;
};


}  // namespace sharoes::baselines

#endif  // SHAROES_BASELINES_BASELINE_H_
