#include "core/cap_policy.h"

namespace sharoes::core {

namespace {
constexpr uint8_t kR = 4, kW = 2, kX = 1;
}

fs::PermTriple EffectiveDirPerms(fs::PermTriple requested) {
  uint8_t r = requested & kR;
  uint8_t x = requested & kX;
  // Directory write is only meaningful with exec ("write does not work
  // without an execute permission"), and -wx itself is unsupported, so a
  // usable write additionally requires read.
  uint8_t w = ((requested & kW) && x && r) ? kW : 0;
  if (!r && (requested & kW) && x) {
    // -wx: unsupported; degrades to exec-only.
    return kX;
  }
  return static_cast<fs::PermTriple>(r | w | x);
}

fs::PermTriple EffectiveFilePerms(fs::PermTriple requested) {
  uint8_t r = requested & kR;
  if (!r) return 0;  // -w-, --x, -wx all unrepresentable.
  uint8_t w = requested & kW;
  uint8_t x = requested & kX;
  return static_cast<fs::PermTriple>(r | w | x);
}

bool DirPermSupported(fs::PermTriple requested) {
  // Only -wx (3) is flagged unsupported; -w- silently equals --- and
  // rw- equals r-- per the paper's semantics (those are degradations the
  // *nix model itself implies, not losses).
  return requested != (kW | kX);
}

bool FilePermSupported(fs::PermTriple requested) {
  uint8_t r = requested & kR;
  if (r) return true;
  // Without read, any of w or x is unsupported (write-only files and
  // exec-only files cannot exist in the outsourced model).
  return (requested & (kW | kX)) == 0;
}

bool ModeSupported(fs::FileType type, fs::Mode mode) {
  for (int cls = 0; cls < 3; ++cls) {
    fs::PermTriple t = mode.ClassBits(cls);
    if (type == fs::FileType::kDirectory ? !DirPermSupported(t)
                                         : !FilePermSupported(t)) {
      return false;
    }
  }
  return true;
}

CapFields DirCapFields(fs::PermTriple effective, bool owner) {
  CapFields f;
  // The owner CAP is the management CAP: it always carries the full key
  // bundle (the owner can chmod themselves access at any time, so this
  // grants nothing *nix does not).
  if (owner) {
    f.dek = f.dsk = f.dvk = f.msk = true;
    f.table_view = TableView::kFull;
    return f;
  }
  switch (effective & 7) {
    case 0:  // --- (and -w-).
      break;
    case 4:  // r-- (and rw-).
      f.dek = f.dvk = true;
      f.table_view = TableView::kNamesOnly;
      break;
    case 5:  // r-x.
      f.dek = f.dvk = true;
      f.table_view = TableView::kFull;
      break;
    case 7:  // rwx.
      f.dek = f.dvk = f.dsk = true;
      f.table_view = TableView::kFull;
      break;
    case 1:  // --x.
      f.dek = f.dvk = true;
      f.table_view = TableView::kExecOnly;
      break;
    default:
      // Unreachable for effective triples; treat as zero permissions.
      break;
  }
  return f;
}

CapFields FileCapFields(fs::PermTriple effective, bool owner) {
  CapFields f;
  f.table_view = TableView::kNone;
  if (owner) {
    f.dek = f.dsk = f.dvk = f.msk = true;
    return f;
  }
  if (effective & 4) {
    f.dek = f.dvk = true;
    if (effective & 2) f.dsk = true;
  }
  return f;
}

CapFields CapFieldsFor(fs::FileType type, fs::PermTriple effective,
                       bool owner) {
  return type == fs::FileType::kDirectory ? DirCapFields(effective, owner)
                                          : FileCapFields(effective, owner);
}

}  // namespace sharoes::core
