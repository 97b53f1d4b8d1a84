// Enterprise identity: users, groups, and the public-key directory.
//
// The paper assumes "each user knows the public keys for all other users"
// (a PKI or identity-based encryption). IdentityDirectory is that PKI: a
// client-side registry of user and group public keys plus group
// membership. Private keys never enter it — each client holds only its
// own, and group private keys travel only inside RSA-wrapped group key
// blocks stored at the SSP (paper §II-A).

#ifndef SHAROES_CORE_IDENTITY_H_
#define SHAROES_CORE_IDENTITY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "crypto/rsa.h"
#include "fs/posix_monitor.h"
#include "fs/types.h"
#include "util/result.h"

namespace sharoes::core {

/// Public information about one user.
struct UserInfo {
  fs::UserId id = fs::kInvalidUser;
  std::string name;
  crypto::RsaPublicKey public_key;
};

/// Public information about one group.
struct GroupInfo {
  fs::GroupId id = fs::kInvalidGroup;
  std::string name;
  crypto::RsaPublicKey public_key;
  std::set<fs::UserId> members;
};

/// The enterprise PKI + group membership database (public data only).
class IdentityDirectory {
 public:
  Status AddUser(UserInfo user);
  Status AddGroup(GroupInfo group);
  Status AddMember(fs::GroupId group, fs::UserId user);
  Status RemoveMember(fs::GroupId group, fs::UserId user);
  /// Replaces a group's public key (group key rotation on revocation).
  Status SetGroupKey(fs::GroupId group, crypto::RsaPublicKey key);

  Result<UserInfo> GetUser(fs::UserId id) const;
  Result<GroupInfo> GetGroup(fs::GroupId id) const;
  bool HasUser(fs::UserId id) const { return users_.count(id) > 0; }
  bool IsMember(fs::GroupId group, fs::UserId user) const;

  /// The Principal (uid + group memberships) of a user.
  fs::Principal PrincipalOf(fs::UserId id) const;

  /// All registered user ids (the authorization universe for Scheme-1
  /// replication and for per-user superblocks).
  std::vector<fs::UserId> AllUsers() const;
  size_t user_count() const { return users_.size(); }

  /// Serialization of the *public* directory (user/group public keys and
  /// membership) — what an enterprise distributes to every client
  /// machine ("each user knows the public keys for all other users").
  Bytes Serialize() const;
  static Result<IdentityDirectory> Deserialize(const Bytes& data);

 private:
  std::map<fs::UserId, UserInfo> users_;
  std::map<fs::GroupId, GroupInfo> groups_;
};

}  // namespace sharoes::core

#endif  // SHAROES_CORE_IDENTITY_H_
