#include "core/identity.h"

namespace sharoes::core {

Status IdentityDirectory::AddUser(UserInfo user) {
  if (user.id == fs::kInvalidUser) {
    return Status::InvalidArgument("invalid user id");
  }
  if (users_.count(user.id) > 0) {
    return Status::AlreadyExists("user " + std::to_string(user.id));
  }
  users_[user.id] = std::move(user);
  return Status::OK();
}

Status IdentityDirectory::AddGroup(GroupInfo group) {
  if (group.id == fs::kInvalidGroup) {
    return Status::InvalidArgument("invalid group id");
  }
  if (groups_.count(group.id) > 0) {
    return Status::AlreadyExists("group " + std::to_string(group.id));
  }
  groups_[group.id] = std::move(group);
  return Status::OK();
}

Status IdentityDirectory::AddMember(fs::GroupId group, fs::UserId user) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(group));
  }
  if (users_.count(user) == 0) {
    return Status::NotFound("user " + std::to_string(user));
  }
  it->second.members.insert(user);
  return Status::OK();
}

Status IdentityDirectory::RemoveMember(fs::GroupId group, fs::UserId user) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(group));
  }
  if (it->second.members.erase(user) == 0) {
    return Status::NotFound("user " + std::to_string(user) +
                            " not in group " + std::to_string(group));
  }
  return Status::OK();
}

Status IdentityDirectory::SetGroupKey(fs::GroupId group,
                                      crypto::RsaPublicKey key) {
  auto it = groups_.find(group);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(group));
  }
  it->second.public_key = std::move(key);
  return Status::OK();
}

Result<UserInfo> IdentityDirectory::GetUser(fs::UserId id) const {
  auto it = users_.find(id);
  if (it == users_.end()) {
    return Status::NotFound("user " + std::to_string(id));
  }
  return it->second;
}

Result<GroupInfo> IdentityDirectory::GetGroup(fs::GroupId id) const {
  auto it = groups_.find(id);
  if (it == groups_.end()) {
    return Status::NotFound("group " + std::to_string(id));
  }
  return it->second;
}

bool IdentityDirectory::IsMember(fs::GroupId group, fs::UserId user) const {
  auto it = groups_.find(group);
  return it != groups_.end() && it->second.members.count(user) > 0;
}

fs::Principal IdentityDirectory::PrincipalOf(fs::UserId id) const {
  fs::Principal p;
  p.uid = id;
  for (const auto& [gid, info] : groups_) {
    if (info.members.count(id) > 0) p.groups.insert(gid);
  }
  return p;
}

std::vector<fs::UserId> IdentityDirectory::AllUsers() const {
  std::vector<fs::UserId> out;
  out.reserve(users_.size());
  for (const auto& [id, info] : users_) {
    (void)info;
    out.push_back(id);
  }
  return out;
}


Bytes IdentityDirectory::Serialize() const {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(users_.size()));
  for (const auto& [id, user] : users_) {
    w.PutU32(id);
    w.PutString(user.name);
    w.PutBytes(user.public_key.Serialize());
  }
  w.PutU32(static_cast<uint32_t>(groups_.size()));
  for (const auto& [id, group] : groups_) {
    w.PutU32(id);
    w.PutString(group.name);
    w.PutBytes(group.public_key.Serialize());
    w.PutU32(static_cast<uint32_t>(group.members.size()));
    for (fs::UserId member : group.members) w.PutU32(member);
  }
  return w.Take();
}

Result<IdentityDirectory> IdentityDirectory::Deserialize(const Bytes& data) {
  BinaryReader r(data);
  IdentityDirectory dir;
  uint32_t n_users = r.GetU32();
  if (!r.ok() || n_users > r.remaining()) {
    return Status::Corruption("truncated identity directory");
  }
  for (uint32_t i = 0; i < n_users; ++i) {
    UserInfo user;
    user.id = r.GetU32();
    user.name = r.GetString();
    SHAROES_ASSIGN_OR_RETURN(user.public_key,
                             crypto::RsaPublicKey::Deserialize(r.GetBytes()));
    SHAROES_RETURN_IF_ERROR(dir.AddUser(std::move(user)));
  }
  uint32_t n_groups = r.GetU32();
  if (!r.ok() || n_groups > r.remaining()) {
    return Status::Corruption("truncated identity directory");
  }
  for (uint32_t i = 0; i < n_groups; ++i) {
    GroupInfo group;
    group.id = r.GetU32();
    group.name = r.GetString();
    SHAROES_ASSIGN_OR_RETURN(group.public_key,
                             crypto::RsaPublicKey::Deserialize(r.GetBytes()));
    uint32_t n_members = r.GetU32();
    if (!r.ok() || n_members > r.remaining()) {
      return Status::Corruption("truncated group membership");
    }
    for (uint32_t m = 0; m < n_members; ++m) {
      group.members.insert(r.GetU32());
    }
    SHAROES_RETURN_IF_ERROR(dir.AddGroup(std::move(group)));
  }
  SHAROES_RETURN_IF_ERROR(r.Finish("identity directory"));
  return dir;
}

}  // namespace sharoes::core
