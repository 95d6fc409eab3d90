// Tests for the shared-disk persistence substrate: journaling,
// checkpointing, crash recovery, and the flush-consistency contract a
// shedding server must meet before a file set moves.
#include "disk/shared_disk.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace anufs::disk {
namespace {

using fsmeta::MetadataOp;
using fsmeta::OpKind;
using fsmeta::OpStatus;

MetadataOp make(OpKind kind, std::string path, std::string path2 = "") {
  MetadataOp op;
  op.kind = kind;
  op.path = std::move(path);
  op.path2 = std::move(path2);
  return op;
}

TEST(NamespaceSerialize, RoundTripsExactly) {
  fsmeta::NamespaceTree tree;
  (void)tree.create("d", fsmeta::FileType::kDirectory);
  (void)tree.create("d/f1", fsmeta::FileType::kFile);
  (void)tree.create("d/f2", fsmeta::FileType::kFile);
  (void)tree.set_attr("d/f1", 4096, 12);
  std::ostringstream a;
  tree.serialize(a);
  std::istringstream in(a.str());
  const fsmeta::NamespaceTree parsed = fsmeta::NamespaceTree::deserialize(in);
  std::ostringstream b;
  parsed.serialize(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(parsed.resolve("d/f1").status, OpStatus::kOk);
  EXPECT_EQ(parsed.attributes(parsed.resolve("d/f1").inode)->size, 4096u);
}

TEST(NamespaceSerialize, NextInodeSurvives) {
  fsmeta::NamespaceTree tree;
  (void)tree.create("a", fsmeta::FileType::kFile);
  std::ostringstream os;
  tree.serialize(os);
  std::istringstream is(os.str());
  fsmeta::NamespaceTree parsed = fsmeta::NamespaceTree::deserialize(is);
  // Creating in both trees yields the same inode numbers.
  const auto orig = tree.create("b", fsmeta::FileType::kFile);
  const auto restored = parsed.create("b", fsmeta::FileType::kFile);
  EXPECT_EQ(orig.inode, restored.inode);
}

TEST(NamespaceSerializeDeathTest, RejectsGarbage) {
  std::istringstream is("not a namespace\n");
  EXPECT_DEATH((void)fsmeta::NamespaceTree::deserialize(is), "magic");
}

// Checkpoint images use the shared token grammar: each bad token is
// named at its own line (line 3).
TEST(NamespaceSerializeDeathTest, MalformedTokensNamedAtTheirLine) {
  const struct {
    const char* line;
    const char* diagnostic;
  } cases[] = {
      {"next 5x", "bad next inode '5x'"},
      {"inode 9 q 0 0 1", "bad inode type 'q'"},
      {"inode 9 f 0 0 4294967296", "bad nlink '4294967296'"},
      {"inode 9 f 0 0 1 extra", "trailing token 'extra'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line);
    std::istringstream is(std::string("# anufs-namespace v1\nnext 2\n") +
                          c.line + "\n");
    EXPECT_DEATH((void)fsmeta::NamespaceTree::deserialize(is),
                 std::string("anufs-namespace: <namespace>:3: ") +
                     c.diagnostic);
  }
}

TEST(Journal, AppendTracksDirty) {
  Journal journal;
  JournalRecord r;
  r.kind = OpKind::kCreate;
  r.path = "f";
  EXPECT_EQ(journal.append(r), 1u);
  EXPECT_EQ(journal.append(r), 2u);
  EXPECT_EQ(journal.dirty_count(), 2u);
  EXPECT_EQ(journal.flush(), 2u);
  EXPECT_EQ(journal.dirty_count(), 0u);
  EXPECT_EQ(journal.last_durable_lsn(), 2u);
}

TEST(Journal, CrashLosesVolatileOnly) {
  Journal journal;
  JournalRecord r;
  r.kind = OpKind::kCreate;
  r.path = "f";
  (void)journal.append(r);
  (void)journal.flush();
  (void)journal.append(r);
  (void)journal.append(r);
  EXPECT_EQ(journal.crash(), 2u);
  EXPECT_EQ(journal.durable().size(), 1u);
  EXPECT_EQ(journal.dirty_count(), 0u);
}

TEST(Journal, TruncateDropsCoveredRecords) {
  Journal journal;
  JournalRecord r;
  r.kind = OpKind::kCreate;
  r.path = "f";
  for (int i = 0; i < 5; ++i) (void)journal.append(r);
  (void)journal.flush();
  journal.truncate_through(3);
  EXPECT_EQ(journal.durable().size(), 2u);
  EXPECT_EQ(journal.durable().front().lsn, 4u);
}

TEST(JournaledFileSet, FlushMakesImageConsistent) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kMkdir, "d"));
  (void)fs.execute(make(OpKind::kCreate, "d/f"));
  EXPECT_FALSE(fs.image_is_consistent());  // dirty records not durable
  EXPECT_EQ(fs.flush(), 2u);
  EXPECT_TRUE(fs.image_is_consistent());
}

TEST(JournaledFileSet, ReadsAreNotJournaled) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kCreate, "f"));
  const std::size_t dirty = fs.journal().dirty_count();
  (void)fs.execute(make(OpKind::kLookup, "f"));
  (void)fs.execute(make(OpKind::kStat, "f"));
  (void)fs.execute(make(OpKind::kReaddir, ""));
  EXPECT_EQ(fs.journal().dirty_count(), dirty);
}

TEST(JournaledFileSet, FailedMutationsAreNotJournaled) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kCreate, "f"));
  const std::size_t dirty = fs.journal().dirty_count();
  EXPECT_EQ(fs.execute(make(OpKind::kCreate, "f")).status,
            OpStatus::kExists);
  EXPECT_EQ(fs.execute(make(OpKind::kUnlink, "ghost")).status,
            OpStatus::kNotFound);
  EXPECT_EQ(fs.journal().dirty_count(), dirty);
}

TEST(JournaledFileSet, CrashAfterFlushLosesNothing) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kMkdir, "d"));
  (void)fs.execute(make(OpKind::kCreate, "d/f"));
  (void)fs.flush();
  EXPECT_EQ(fs.crash_and_recover(), 0u);
  EXPECT_EQ(fs.service().tree().resolve("d/f").status, OpStatus::kOk);
}

TEST(JournaledFileSet, CrashBeforeFlushLosesTail) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kCreate, "durable"));
  (void)fs.flush();
  (void)fs.execute(make(OpKind::kCreate, "volatile"));
  EXPECT_EQ(fs.crash_and_recover(), 1u);  // the unflushed create
  EXPECT_EQ(fs.service().tree().resolve("durable").status, OpStatus::kOk);
  EXPECT_EQ(fs.service().tree().resolve("volatile").status,
            OpStatus::kNotFound);
}

TEST(JournaledFileSet, CheckpointTruncatesJournal) {
  JournaledFileSet fs;
  for (int i = 0; i < 20; ++i) {
    (void)fs.execute(make(OpKind::kCreate, "f" + std::to_string(i)));
  }
  fs.checkpoint();
  EXPECT_EQ(fs.journal().durable().size(), 0u);
  EXPECT_GT(fs.image().checkpoint_bytes(), 0u);
  // Recovery from checkpoint alone reproduces the tree.
  EXPECT_TRUE(fs.image_is_consistent());
  EXPECT_EQ(fs.crash_and_recover(), 0u);
  EXPECT_EQ(fs.service().tree().resolve("f19").status, OpStatus::kOk);
}

TEST(JournaledFileSet, RecoveryReplaysJournalOverCheckpoint) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kCreate, "old"));
  fs.checkpoint();
  (void)fs.execute(make(OpKind::kCreate, "newer"));
  (void)fs.execute(make(OpKind::kRename, "old", "renamed"));
  (void)fs.execute(make(OpKind::kSetAttr, "newer"));
  (void)fs.flush();
  (void)fs.crash_and_recover();
  EXPECT_EQ(fs.service().tree().resolve("renamed").status, OpStatus::kOk);
  EXPECT_EQ(fs.service().tree().resolve("newer").status, OpStatus::kOk);
  EXPECT_EQ(fs.service().tree().resolve("old").status, OpStatus::kNotFound);
}

TEST(JournaledFileSet, LocksAreVolatile) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kCreate, "f"));
  MetadataOp open = make(OpKind::kOpen, "f");
  open.session = fsmeta::SessionId{1};
  open.mode = fsmeta::LockMode::kExclusive;
  EXPECT_EQ(fs.execute(open).status, OpStatus::kOk);
  (void)fs.flush();
  (void)fs.crash_and_recover();
  // After the failover, any client can open again.
  open.session = fsmeta::SessionId{2};
  EXPECT_EQ(fs.execute(open).status, OpStatus::kOk);
}

TEST(JournaledFileSet, ManyOpsStressRecovery) {
  JournaledFileSet fs;
  (void)fs.execute(make(OpKind::kMkdir, "d"));
  for (int i = 0; i < 300; ++i) {
    (void)fs.execute(make(OpKind::kCreate, "d/f" + std::to_string(i)));
    if (i % 3 == 0) {
      (void)fs.execute(make(OpKind::kUnlink, "d/f" + std::to_string(i)));
    }
    if (i % 50 == 0) fs.checkpoint();
    if (i % 7 == 0) (void)fs.flush();
  }
  (void)fs.flush();
  EXPECT_TRUE(fs.image_is_consistent());
  (void)fs.crash_and_recover();
  fs.service().tree().check_consistency();
  EXPECT_EQ(fs.service().tree().resolve("d/f1").status, OpStatus::kOk);
  EXPECT_EQ(fs.service().tree().resolve("d/f0").status,
            OpStatus::kNotFound);
}

}  // namespace
}  // namespace anufs::disk
