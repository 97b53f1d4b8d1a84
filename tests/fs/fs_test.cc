// Unit tests for the filesystem substrate: modes, attrs, dir tables,
// superblocks, paths.

#include <gtest/gtest.h>

#include "fs/dir_table.h"
#include "fs/metadata.h"
#include "fs/mode.h"
#include "fs/path.h"
#include "fs/superblock.h"
#include "util/random.h"

namespace sharoes::fs {
namespace {

TEST(ModeTest, ParseAndToString) {
  Mode m;
  ASSERT_TRUE(Mode::Parse("rwxr-x--x", &m));
  EXPECT_EQ(m.bits(), 0751);
  EXPECT_EQ(m.ToString(), "rwxr-x--x");
  ASSERT_TRUE(Mode::Parse("---------", &m));
  EXPECT_EQ(m.bits(), 0);
  ASSERT_TRUE(Mode::Parse("rwxrwxrwx", &m));
  EXPECT_EQ(m.bits(), 0777);
}

TEST(ModeTest, ParseRejectsMalformed) {
  Mode m;
  EXPECT_FALSE(Mode::Parse("rwx", &m));            // Too short.
  EXPECT_FALSE(Mode::Parse("rwxr-x--xx", &m));     // Too long.
  EXPECT_FALSE(Mode::Parse("xwrr-x--x", &m));      // Wrong letter order.
  EXPECT_FALSE(Mode::Parse("rwzr-x--x", &m));      // Invalid char.
}

TEST(ModeTest, ClassBitsAndAccessors) {
  Mode m = Mode::FromOctal(0754);
  EXPECT_EQ(m.ClassBits(0), 7);
  EXPECT_EQ(m.ClassBits(1), 5);
  EXPECT_EQ(m.ClassBits(2), 4);
  EXPECT_TRUE(m.OwnerHas(Access::kWrite));
  EXPECT_FALSE(m.GroupHas(Access::kWrite));
  EXPECT_TRUE(m.GroupHas(Access::kExec));
  EXPECT_TRUE(m.OtherHas(Access::kRead));
  EXPECT_FALSE(m.OtherHas(Access::kExec));
}

// Round-trip every one of the 512 modes through string form.
class ModeSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ModeSweepTest, StringRoundTrip) {
  Mode m(static_cast<uint16_t>(GetParam()));
  Mode back;
  ASSERT_TRUE(Mode::Parse(m.ToString(), &back));
  EXPECT_EQ(back, m);
}

INSTANTIATE_TEST_SUITE_P(AllModes, ModeSweepTest,
                         ::testing::Range(0, 512, 7));

Bytes Encode(const InodeAttrs& a) {
  BinaryWriter w;
  a.AppendTo(&w);
  return w.Take();
}

Result<InodeAttrs> ReadAttrs(const Bytes& b) {
  BinaryReader r(b);
  return InodeAttrs::ReadFrom(&r);
}

TEST(InodeAttrsTest, SerializationRoundTrip) {
  InodeAttrs a;
  a.inode = 42;
  a.type = FileType::kDirectory;
  a.owner = 1000;
  a.group = 2000;
  a.mode = Mode::FromOctal(0751);
  a.size = 123456;
  a.mtime = 987654321;
  a.nlink = 3;
  a.acl.push_back(AclEntry{AclEntry::Kind::kUser, 1001, 5});
  a.acl.push_back(AclEntry{AclEntry::Kind::kGroup, 2001, 4});
  auto back = ReadAttrs(Encode(a));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, a);
}

TEST(InodeAttrsTest, ReadFromRejectsTruncated) {
  EXPECT_FALSE(ReadAttrs(ToBytes("nope")).ok());
  InodeAttrs a;
  a.acl.push_back(AclEntry{AclEntry::Kind::kUser, 1001, 5});
  Bytes b = Encode(a);
  b.pop_back();
  EXPECT_FALSE(ReadAttrs(b).ok());
}

TEST(InodeAttrsTest, ReadFromRejectsBadType) {
  InodeAttrs a;
  a.inode = 1;
  Bytes b = Encode(a);
  b[8] = 7;  // Type byte follows the u64 inode.
  EXPECT_FALSE(ReadAttrs(b).ok());
}

TEST(DirTableTest, AddLookupRemove) {
  DirTable t;
  EXPECT_TRUE(t.Add("a.txt", 10).ok());
  EXPECT_TRUE(t.Add("b.txt", 11).ok());
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.Lookup("a.txt"), std::optional<InodeNum>(10));
  EXPECT_FALSE(t.Lookup("c.txt").has_value());
  EXPECT_TRUE(t.Remove("a.txt").ok());
  EXPECT_FALSE(t.Contains("a.txt"));
  EXPECT_TRUE(t.Remove("a.txt").IsNotFound());
}

TEST(DirTableTest, RejectsDuplicatesAndBadNames) {
  DirTable t;
  EXPECT_TRUE(t.Add("x", 1).ok());
  EXPECT_EQ(t.Add("x", 2).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(t.Add("", 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Add(".", 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Add("..", 3).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Add("a/b", 3).code(), StatusCode::kInvalidArgument);
}

TEST(DirTableTest, SerializationRoundTrip) {
  DirTable t;
  ASSERT_TRUE(t.Add("hello", 100).ok());
  ASSERT_TRUE(t.Add("world", 200).ok());
  auto back = DirTable::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
  EXPECT_FALSE(DirTable::Deserialize(ToBytes("xx")).ok());
}

TEST(DirTableTest, HugeCountRejectedSafely) {
  Bytes evil = {0xFF, 0xFF, 0xFF, 0x7F};
  EXPECT_FALSE(DirTable::Deserialize(evil).ok());
}

TEST(SuperblockTest, RoundTrip) {
  Superblock sb;
  sb.root_inode = 1;
  sb.total_inodes = 99;
  sb.next_inode = 100;
  sb.root_mek = {1, 2, 3};
  sb.root_mvk = {4, 5};
  auto back = Superblock::Deserialize(sb.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, sb);
}

TEST(PathTest, SplitBasics) {
  auto r = SplitPath("/a/b/c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
  r = SplitPath("/");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  r = SplitPath("//a//b/");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b"}));
}

TEST(PathTest, SplitRejects) {
  EXPECT_FALSE(SplitPath("relative").ok());
  EXPECT_FALSE(SplitPath("").ok());
  EXPECT_FALSE(SplitPath("/a/../b").ok());
  EXPECT_FALSE(SplitPath("/a/./b").ok());
}

TEST(PathTest, JoinInvertsSplit) {
  for (const char* p : {"/", "/a", "/a/b/c"}) {
    auto comps = SplitPath(p);
    ASSERT_TRUE(comps.ok());
    EXPECT_EQ(JoinPath(*comps), p);
  }
}

TEST(PathTest, SplitParentName) {
  auto r = SplitParentName("/a/b/c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->parent, "/a/b");
  EXPECT_EQ(r->name, "c");
  r = SplitParentName("/top");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->parent, "/");
  EXPECT_EQ(r->name, "top");
  EXPECT_FALSE(SplitParentName("/").ok());
}

}  // namespace
}  // namespace sharoes::fs
