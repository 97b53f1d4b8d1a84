// FileVersions, the client's per-inode version state, driven without a
// World: each case is a script of events on a few inodes followed by the
// answers the type must give for inode 1.

#include "core/file_versions.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sharoes::core {
namespace {

enum class Event { kCreated, kObserve, kPend, kAck, kDrop };

struct Step {
  Event event;
  uint64_t write_gen = 0;
  char root = 0;  // The tag root is 32 copies of this byte.
  StatusCode want = StatusCode::kOk;  // kObserve only.
  fs::InodeNum inode = 1;
};

struct Case {
  std::string name;
  std::vector<Step> steps;
  bool never_written;
  bool must_peek;
  uint64_t peeked;
  uint64_t next;
};

Bytes Root(char c) { return Bytes(32, static_cast<uint8_t>(c)); }

const StatusCode kRollback = StatusCode::kCorruption;

std::vector<Case> Cases() {
  using E = Event;
  return {
      {"unknown_history", {}, true, true, 5, 6},
      {"created", {{E::kCreated}}, true, false, 0, 1},
      {"monotonic_observe",
       {{E::kObserve, 1, 'a'},
        {E::kObserve, 3, 'c'},
        {E::kObserve, 2, 'b', kRollback},
        {E::kObserve, 3, 'c'}},
       false, false, 0, 4},
      {"equivocation_at_one_generation",
       {{E::kObserve, 2, 'a'},
        {E::kObserve, 2, 'a'},
        {E::kObserve, 2, 'b', kRollback}},
       false, false, 0, 3},
      // Written once: a missing block 0 is dropped data, not empty.
      {"written_then_missing", {{E::kObserve, 1, 'a'}}, false, false, 0, 2},
      {"next_counts_the_pending_version",
       {{E::kObserve, 1, 'a'}, {E::kPend, 2, 'b'}}, false, false, 0, 3},
      {"promote_on_ack",
       {{E::kObserve, 1, 'a'},
        {E::kPend, 2, 'b'},
        {E::kAck},
        {E::kObserve, 1, 'a', kRollback},
        {E::kObserve, 2, 'b'}},
       false, false, 0, 3},
      {"pending_read_does_not_raise_the_floor",
       {{E::kObserve, 1, 'a'},
        {E::kPend, 2, 'b'},
        {E::kObserve, 2, 'b'},
        {E::kDrop},
        {E::kObserve, 1, 'a'}},
       false, false, 1, 2},
      {"drop_on_failure_keeps_the_floor_and_peeks",
       {{E::kObserve, 2, 'a'},
        {E::kPend, 3, 'b'},
        {E::kDrop},
        {E::kObserve, 1, 'z', kRollback}},
       false, true, 0, 3},
      // The dropped batch may have applied: the peek sees it.
      {"next_after_peek_goes_past_the_store",
       {{E::kObserve, 2, 'a'}, {E::kPend, 3, 'b'}, {E::kDrop}},
       false, true, 3, 4},
      {"observe_after_a_failure_needs_no_peek",
       {{E::kObserve, 2, 'a'},
        {E::kPend, 3, 'b'},
        {E::kDrop},
        {E::kObserve, 3, 'b'}},
       false, false, 0, 4},
      {"unknown_history_write_acked",
       {{E::kPend, 4, 'd'}, {E::kAck}}, false, false, 0, 5},
      {"unknown_history_write_dropped",
       {{E::kPend, 4, 'd'}, {E::kDrop}}, true, true, 3, 4},
      {"settle_touches_only_pending_inodes",
       {{E::kObserve, 1, 'a'},
        {E::kPend, 7, 'x', StatusCode::kOk, 2},
        {E::kDrop}},
       false, false, 0, 2},
  };
}

class FileVersionsTest : public ::testing::TestWithParam<Case> {};

TEST_P(FileVersionsTest, AnswersMatchTheScript) {
  const Case& c = GetParam();
  FileVersions v;
  for (size_t i = 0; i < c.steps.size(); ++i) {
    const Step& s = c.steps[i];
    Bytes root = s.root == 0 ? Bytes{} : Root(s.root);
    switch (s.event) {
      case Event::kCreated:
        v.Created(s.inode);
        break;
      case Event::kObserve:
        EXPECT_EQ(v.Observe(s.inode, s.write_gen, root).code(), s.want)
            << "step " << i;
        break;
      case Event::kPend:
        v.Pend(s.inode, s.write_gen, root);
        break;
      case Event::kAck:
        v.Settle(/*acknowledged=*/true);
        break;
      case Event::kDrop:
        v.Settle(/*acknowledged=*/false);
        break;
    }
  }
  EXPECT_EQ(v.NeverWritten(1), c.never_written);
  EXPECT_EQ(v.MustPeek(1), c.must_peek);
  EXPECT_EQ(v.Next(1, c.peeked), c.next);
}

INSTANTIATE_TEST_SUITE_P(Scripts, FileVersionsTest,
                         ::testing::ValuesIn(Cases()),
                         [](const ::testing::TestParamInfo<Case>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace sharoes::core
