// Cryptographic Access control Primitives: the field-accessibility policy
// of the paper's Figures 4 and 5.
//
// A CAP replicates one *nix permission setting by choosing which key
// fields of the metadata object are present, and how the directory table
// copy is rendered. This header is the single source of truth for that
// mapping, including the paper's documented degradations:
//
//   directories: rw- == r--,  -w- == ---,  -wx unsupported (degrades to
//                --x and write attempts fail), exec-only supported via
//                per-row name-derived encryption;
//   files:       r-x == r--, rwx == rw-, -w- and --x and -wx unsupported
//                (write-only impossible with symmetric DEKs; exec-only
//                impossible in any outsourced model).

#ifndef SHAROES_CORE_CAP_POLICY_H_
#define SHAROES_CORE_CAP_POLICY_H_

#include "fs/mode.h"
#include "fs/types.h"

namespace sharoes::core {

/// How a directory-table copy is rendered for a CAP (paper Figure 4).
enum class TableView : uint8_t {
  kNone = 0,      // No table access (zero permissions).
  kNamesOnly = 1, // r-- / rw-: names visible, no inodes or keys.
  kFull = 2,      // r-x / rwx: name, inode, MEK, MVK columns all visible.
  kExecOnly = 3,  // --x: rows individually encrypted under H_DEK(name).
};

/// Which fields a CAP exposes in the metadata object and how it renders
/// the directory table.
struct CapFields {
  bool dek = false;  // Data (file) or table (dir) encryption key.
  bool dsk = false;  // Data signing key (writers).
  bool dvk = false;  // Data verification key (readers).
  bool msk = false;  // Metadata signing key (owners only).
  TableView table_view = TableView::kNone;  // Directories only.

  bool can_read_data() const { return dek && dvk; }
  bool can_write_data() const { return dek && dsk; }
};

/// Degrades a requested directory rwx triple to what SHAROES enforces.
/// Per the paper: write-only behaves as zero permissions; read-write as
/// read; write-exec is *unsupported* (the one un-representable setting) —
/// it degrades to exec-only and `DirPermSupported` reports false.
fs::PermTriple EffectiveDirPerms(fs::PermTriple requested);

/// Degrades a requested file rwx triple. Write-only and exec-only (and
/// write-exec) cannot be represented; execute requires read.
fs::PermTriple EffectiveFilePerms(fs::PermTriple requested);

/// False only for directory -wx (the paper's unsupported setting).
bool DirPermSupported(fs::PermTriple requested);
/// False for file triples containing w without r, or x without r.
bool FilePermSupported(fs::PermTriple requested);

/// True if every class triple (and ACL triple) of the mode is supported
/// for the given object type.
bool ModeSupported(fs::FileType type, fs::Mode mode);

/// The CAP field mask for a directory permission triple (paper Figure 4).
/// `owner` CAPs additionally expose the MSK (and, in this implementation,
/// the maintenance key bundle — see core/object_codec.h).
CapFields DirCapFields(fs::PermTriple effective, bool owner);

/// The CAP field mask for a file permission triple (paper Figure 5).
CapFields FileCapFields(fs::PermTriple effective, bool owner);

/// Dispatches on type.
CapFields CapFieldsFor(fs::FileType type, fs::PermTriple effective,
                       bool owner);

}  // namespace sharoes::core

#endif  // SHAROES_CORE_CAP_POLICY_H_
