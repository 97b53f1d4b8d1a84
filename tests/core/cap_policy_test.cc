// CAP field-mask tests: the paper's Figures 4 and 5, row by row.

#include <gtest/gtest.h>

#include "core/cap_policy.h"

namespace sharoes::core {
namespace {

using fs::FileType;
using fs::PermTriple;

// --- Figure 4: directory CAPs -------------------------------------------

struct DirCapCase {
  PermTriple raw;
  PermTriple effective;
  bool dek, dsk, dvk;
  TableView view;
  bool supported;
};

class DirCapTest : public ::testing::TestWithParam<DirCapCase> {};

TEST_P(DirCapTest, MatchesFigure4) {
  const DirCapCase& c = GetParam();
  EXPECT_EQ(EffectiveDirPerms(c.raw), c.effective)
      << fs::PermTripleToString(c.raw);
  EXPECT_EQ(DirPermSupported(c.raw), c.supported);
  CapFields f = DirCapFields(c.effective, /*owner=*/false);
  EXPECT_EQ(f.dek, c.dek);
  EXPECT_EQ(f.dsk, c.dsk);
  EXPECT_EQ(f.dvk, c.dvk);
  EXPECT_FALSE(f.msk);  // Only owners ever see the MSK.
  EXPECT_EQ(f.table_view, c.view);
}

INSTANTIATE_TEST_SUITE_P(
    Figure4, DirCapTest,
    ::testing::Values(
        // ---: all fields inaccessible.
        DirCapCase{0, 0, false, false, false, TableView::kNone, true},
        // r--: DEK+DVK; names only.
        DirCapCase{4, 4, true, false, true, TableView::kNamesOnly, true},
        // rw- == r-- ("write does not work without an execute permission").
        DirCapCase{6, 4, true, false, true, TableView::kNamesOnly, true},
        // r-x: DEK+DVK; all four columns.
        DirCapCase{5, 5, true, false, true, TableView::kFull, true},
        // rwx: +DSK.
        DirCapCase{7, 7, true, true, true, TableView::kFull, true},
        // -w- == --- ("write for directories does not work without exec").
        DirCapCase{2, 0, false, false, false, TableView::kNone, true},
        // --x: rows encrypted with H_DEK(name).
        DirCapCase{1, 1, true, false, true, TableView::kExecOnly, true},
        // -wx: the one unsupported *nix setting; degrades to exec-only.
        DirCapCase{3, 1, true, false, true, TableView::kExecOnly, false}));

// --- Figure 5: file CAPs -------------------------------------------------

struct FileCapCase {
  PermTriple raw;
  PermTriple effective;
  bool dek, dsk, dvk;
  bool supported;
};

class FileCapTest : public ::testing::TestWithParam<FileCapCase> {};

TEST_P(FileCapTest, MatchesFigure5) {
  const FileCapCase& c = GetParam();
  EXPECT_EQ(EffectiveFilePerms(c.raw), c.effective)
      << fs::PermTripleToString(c.raw);
  EXPECT_EQ(FilePermSupported(c.raw), c.supported);
  CapFields f = FileCapFields(c.effective, /*owner=*/false);
  EXPECT_EQ(f.dek, c.dek);
  EXPECT_EQ(f.dsk, c.dsk);
  EXPECT_EQ(f.dvk, c.dvk);
  EXPECT_FALSE(f.msk);
  EXPECT_EQ(f.table_view, TableView::kNone);
}

INSTANTIATE_TEST_SUITE_P(
    Figure5, FileCapTest,
    ::testing::Values(
        FileCapCase{0, 0, false, false, false, true},
        // r--: DEK+DVK.
        FileCapCase{4, 4, true, false, true, true},
        // rw-: +DSK.
        FileCapCase{6, 6, true, true, true, true},
        // r-x == r-- CAP-wise (exec happens client-side after decryption).
        FileCapCase{5, 5, true, false, true, true},
        // rwx == rw-.
        FileCapCase{7, 7, true, true, true, true},
        // -w-: write-only files are unrepresentable with symmetric DEKs.
        FileCapCase{2, 0, false, false, false, false},
        // --x: "no storage-as-a-service model can enforce exec-only".
        FileCapCase{1, 0, false, false, false, false},
        // -wx.
        FileCapCase{3, 0, false, false, false, false}));

TEST(CapPolicyTest, OwnerCapAlwaysFull) {
  for (FileType type : {FileType::kFile, FileType::kDirectory}) {
    for (int t = 0; t < 8; ++t) {
      CapFields f = CapFieldsFor(type, static_cast<PermTriple>(t), true);
      EXPECT_TRUE(f.dek && f.dsk && f.dvk && f.msk)
          << "owner CAP must carry the management bundle";
      if (type == FileType::kDirectory) {
        EXPECT_EQ(f.table_view, TableView::kFull);
      }
    }
  }
}

TEST(CapPolicyTest, FileExecutePermissionsFollowRead) {
  // r-x files are readable; once decrypted the client can execute them.
  EXPECT_EQ(EffectiveFilePerms(5), 5);
  // x without r is gone.
  EXPECT_EQ(EffectiveFilePerms(1), 0);
  EXPECT_EQ(EffectiveFilePerms(3), 0);
}

TEST(CapPolicyTest, ModeSupported) {
  using fs::Mode;
  EXPECT_TRUE(ModeSupported(FileType::kDirectory, Mode::FromOctal(0755)));
  EXPECT_TRUE(ModeSupported(FileType::kDirectory, Mode::FromOctal(0711)));
  // Group class -wx on a directory.
  EXPECT_FALSE(ModeSupported(FileType::kDirectory, Mode::FromOctal(0730)));
  EXPECT_TRUE(ModeSupported(FileType::kFile, Mode::FromOctal(0644)));
  // Others class write-only on a file.
  EXPECT_FALSE(ModeSupported(FileType::kFile, Mode::FromOctal(0642)));
  // Others class exec-only on a file.
  EXPECT_FALSE(ModeSupported(FileType::kFile, Mode::FromOctal(0641)));
}

TEST(CapPolicyTest, CanReadWriteHelpers) {
  CapFields read = FileCapFields(4, false);
  EXPECT_TRUE(read.can_read_data());
  EXPECT_FALSE(read.can_write_data());
  CapFields rw = FileCapFields(6, false);
  EXPECT_TRUE(rw.can_read_data());
  EXPECT_TRUE(rw.can_write_data());
}

}  // namespace
}  // namespace sharoes::core
