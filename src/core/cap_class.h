// CAP class assignment: which metadata replica (and directory-table copy)
// serves which principal, and when rows must split into per-user blocks.
//
// Replica layout (Scheme-2, the default): one replica per *principal
// class* of the object — owner (selector 0), owning group (1), others (2)
// — plus one per distinct effective ACL triple (selector 0x10|triple).
// Class selectors are stable across chmod, which is what keeps parent
// directory rows valid when only mode bits change.
//
// Scheme-1 replicates per user instead: selector 2^32 | uid for every
// registered user (paper §III-D.1).
//
// A row in a parent table copy can serve its whole reader universe with
// one (selector, MEK) pair only if every reader in that universe resolves
// to the same child class. When they diverge (ACLs, cross-ownership) the
// row becomes a *split point* and per-user RSA-encrypted blocks carry the
// correct reference (paper §III-D.2).

#ifndef SHAROES_CORE_CAP_CLASS_H_
#define SHAROES_CORE_CAP_CLASS_H_

#include <map>
#include <vector>

#include "core/cap_policy.h"
#include "core/identity.h"
#include "fs/metadata.h"
#include "fs/posix_monitor.h"
#include "ssp/message.h"

namespace sharoes::core {

using ssp::Selector;

/// Class selectors (Scheme-2).
constexpr Selector kOwnerSelector = 0;
constexpr Selector kGroupSelector = 1;
constexpr Selector kOtherSelector = 2;
/// ACL replicas: 0x10 | resolved triple.
constexpr Selector kAclSelectorBase = 0x10;
/// Scheme-1 per-user replicas: kUserSelectorBase | uid.
constexpr Selector kUserSelectorBase = 1ull << 32;
/// The writer-only master table copy of a directory.
constexpr Selector kMasterSelector = ~0ull;

/// Table copies are stored in the SSP metadata namespace under a disjoint
/// selector range.
constexpr Selector kTableSelectorFlag = 1ull << 62;
inline Selector TableSelector(Selector replica) {
  return replica | kTableSelectorFlag;
}
/// A table copy's (or the master's) selector holds its signed head; each
/// bucket of it has a selector of its own, with the bucket flag set, the
/// bucket index in bits 40..59, and the copy's selector in the low bits
/// (the master, whose selector has every bit set, as kMasterBucketCode).
constexpr Selector kBucketSelectorFlag = 1ull << 61;
constexpr Selector kMasterBucketCode = (1ull << 40) - 1;
inline Selector BucketSelector(Selector copy, uint32_t index) {
  return kTableSelectorFlag | kBucketSelectorFlag |
         (static_cast<Selector>(index) << 40) |
         (copy == kMasterSelector ? kMasterBucketCode : copy);
}

inline Selector AclSelector(fs::PermTriple resolved) {
  return kAclSelectorBase | (resolved & 7);
}
inline Selector UserSelector(fs::UserId uid) {
  return kUserSelectorBase | uid;
}
inline bool IsUserSelector(Selector s) {
  return (s & kUserSelectorBase) != 0 && s != kMasterSelector &&
         (s & kTableSelectorFlag) == 0;
}

/// Which replication layout is in use (paper §III-D).
enum class Scheme {
  kScheme1,  // Per-user metadata trees.
  kScheme2,  // Per-CAP(class) trees with split points (default).
};

/// Minimal ownership facts needed to classify principals against an
/// object (a subset of InodeAttrs; also stored in parent master rows).
struct OwnershipInfo {
  fs::UserId owner = fs::kInvalidUser;
  fs::GroupId group = fs::kInvalidGroup;
  fs::Mode mode;
  std::vector<fs::AclEntry> acl;
  fs::FileType type = fs::FileType::kFile;

  static OwnershipInfo FromAttrs(const fs::InodeAttrs& a) {
    return OwnershipInfo{a.owner, a.group, a.mode, a.acl, a.type};
  }
  fs::InodeAttrs ToAttrsSkeleton() const {
    fs::InodeAttrs a;
    a.owner = owner;
    a.group = group;
    a.mode = mode;
    a.acl = acl;
    a.type = type;
    return a;
  }
};

/// One metadata replica to materialize.
struct ReplicaSpec {
  Selector selector = kOwnerSelector;
  fs::PermTriple effective = 0;  // Post-degradation triple.
  bool owner = false;            // Carries MSK + maintenance bundle.

  CapFields Fields(fs::FileType type) const {
    return CapFieldsFor(type, effective, owner);
  }
};

/// The selector a given principal should use for an object.
Selector SelectorFor(const OwnershipInfo& info, const fs::Principal& who,
                     Scheme scheme);

/// The effective CAP (spec) a principal holds on an object.
ReplicaSpec SpecFor(const OwnershipInfo& info, const fs::Principal& who,
                    Scheme scheme);

/// All replicas an object needs under `scheme`, given the enterprise
/// directory (ACL triples and Scheme-1 both depend on the user universe).
std::vector<ReplicaSpec> ReplicasFor(const OwnershipInfo& info, Scheme scheme,
                                     const IdentityDirectory& dir);

/// The set of users whose reads are served by the table copy / metadata
/// replica `selector` of an object (its "reader universe"). Used to decide
/// row uniformity in parent tables.
std::vector<fs::UserId> UniverseOf(const OwnershipInfo& info,
                                   Selector selector, Scheme scheme,
                                   const IdentityDirectory& dir);

/// Plan for rendering one row of one parent table copy.
struct RowPlan {
  bool uniform = true;
  Selector selector = kOtherSelector;       // Valid when uniform.
  std::map<fs::UserId, Selector> per_user;  // Valid when !uniform.
};

/// Decides uniform-vs-split for a child with ownership `child` as seen by
/// the readers of a parent copy with universe `universe`.
RowPlan PlanRow(const OwnershipInfo& child,
                const std::vector<fs::UserId>& universe, Scheme scheme,
                const IdentityDirectory& dir);

}  // namespace sharoes::core

#endif  // SHAROES_CORE_CAP_CLASS_H_
