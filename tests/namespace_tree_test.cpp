// Tests for the per-file-set namespace: path resolution, mutations,
// error semantics, structural consistency.
#include "fsmeta/namespace_tree.h"

#include <gtest/gtest.h>

namespace anufs::fsmeta {
namespace {

TEST(SplitPath, Basics) {
  EXPECT_TRUE(split_path("").empty());
  EXPECT_EQ(split_path("a").size(), 1u);
  const auto parts = split_path("a/b/c");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitPathDeathTest, RejectsEmptyComponents) {
  EXPECT_DEATH((void)split_path("a//b"), "precondition");
  EXPECT_DEATH((void)split_path("/a"), "precondition");
}

TEST(NamespaceTree, StartsWithRoot) {
  const NamespaceTree tree;
  EXPECT_EQ(tree.inode_count(), 1u);
  const ResolveResult r = tree.resolve("");
  EXPECT_EQ(r.status, OpStatus::kOk);
  EXPECT_EQ(r.inode, kRootInode);
  EXPECT_EQ(tree.attributes(kRootInode)->type, FileType::kDirectory);
}

TEST(NamespaceTree, CreateAndResolveFile) {
  NamespaceTree tree;
  const auto m = tree.create("hello", FileType::kFile);
  EXPECT_EQ(m.status, OpStatus::kOk);
  const ResolveResult r = tree.resolve("hello");
  EXPECT_EQ(r.status, OpStatus::kOk);
  EXPECT_EQ(r.inode, m.inode);
  EXPECT_EQ(tree.attributes(r.inode)->type, FileType::kFile);
  tree.check_consistency();
}

TEST(NamespaceTree, NestedCreation) {
  NamespaceTree tree;
  EXPECT_EQ(tree.create("a", FileType::kDirectory).status, OpStatus::kOk);
  EXPECT_EQ(tree.create("a/b", FileType::kDirectory).status, OpStatus::kOk);
  EXPECT_EQ(tree.create("a/b/c", FileType::kFile).status, OpStatus::kOk);
  const ResolveResult r = tree.resolve("a/b/c");
  EXPECT_EQ(r.status, OpStatus::kOk);
  EXPECT_EQ(r.components, 3u);
  tree.check_consistency();
}

TEST(NamespaceTree, CreateInMissingParentFails) {
  NamespaceTree tree;
  EXPECT_EQ(tree.create("nodir/x", FileType::kFile).status,
            OpStatus::kNotFound);
  EXPECT_EQ(tree.inode_count(), 1u);
}

TEST(NamespaceTree, CreateDuplicateFails) {
  NamespaceTree tree;
  EXPECT_EQ(tree.create("x", FileType::kFile).status, OpStatus::kOk);
  EXPECT_EQ(tree.create("x", FileType::kFile).status, OpStatus::kExists);
  EXPECT_EQ(tree.create("x", FileType::kDirectory).status,
            OpStatus::kExists);
}

TEST(NamespaceTree, ResolveThroughFileFails) {
  NamespaceTree tree;
  EXPECT_EQ(tree.create("f", FileType::kFile).status, OpStatus::kOk);
  EXPECT_EQ(tree.resolve("f/sub").status, OpStatus::kNotDirectory);
  EXPECT_EQ(tree.create("f/sub", FileType::kFile).status,
            OpStatus::kNotDirectory);
}

TEST(NamespaceTree, RemoveFile) {
  NamespaceTree tree;
  (void)tree.create("f", FileType::kFile);
  EXPECT_EQ(tree.remove("f").status, OpStatus::kOk);
  EXPECT_EQ(tree.resolve("f").status, OpStatus::kNotFound);
  EXPECT_EQ(tree.inode_count(), 1u);
  tree.check_consistency();
}

TEST(NamespaceTree, RemoveMissingFails) {
  NamespaceTree tree;
  EXPECT_EQ(tree.remove("ghost").status, OpStatus::kNotFound);
}

TEST(NamespaceTree, RemoveNonEmptyDirFails) {
  NamespaceTree tree;
  (void)tree.create("d", FileType::kDirectory);
  (void)tree.create("d/f", FileType::kFile);
  EXPECT_EQ(tree.remove("d").status, OpStatus::kNotEmpty);
  EXPECT_EQ(tree.remove("d/f").status, OpStatus::kOk);
  EXPECT_EQ(tree.remove("d").status, OpStatus::kOk);
  tree.check_consistency();
}

TEST(NamespaceTree, RemoveRootFails) {
  NamespaceTree tree;
  EXPECT_EQ(tree.remove("").status, OpStatus::kIsDirectory);
}

TEST(NamespaceTree, RenameFile) {
  NamespaceTree tree;
  (void)tree.create("d", FileType::kDirectory);
  const auto created = tree.create("f", FileType::kFile);
  EXPECT_EQ(tree.rename("f", "d/g").status, OpStatus::kOk);
  EXPECT_EQ(tree.resolve("f").status, OpStatus::kNotFound);
  const ResolveResult r = tree.resolve("d/g");
  EXPECT_EQ(r.status, OpStatus::kOk);
  EXPECT_EQ(r.inode, created.inode);  // same inode, new name
  tree.check_consistency();
}

TEST(NamespaceTree, RenameOntoExistingFails) {
  NamespaceTree tree;
  (void)tree.create("a", FileType::kFile);
  (void)tree.create("b", FileType::kFile);
  EXPECT_EQ(tree.rename("a", "b").status, OpStatus::kExists);
}

TEST(NamespaceTree, RenameDirIntoOwnSubtreeFails) {
  NamespaceTree tree;
  (void)tree.create("d", FileType::kDirectory);
  (void)tree.create("d/e", FileType::kDirectory);
  EXPECT_NE(tree.rename("d", "d/e/dd").status, OpStatus::kOk);
  tree.check_consistency();
}

TEST(NamespaceTree, SetAttrUpdatesFile) {
  NamespaceTree tree;
  (void)tree.create("f", FileType::kFile);
  EXPECT_EQ(tree.set_attr("f", 4096, 77).status, OpStatus::kOk);
  const ResolveResult r = tree.resolve("f");
  EXPECT_EQ(tree.attributes(r.inode)->size, 4096u);
  EXPECT_EQ(tree.attributes(r.inode)->mtime, 77u);
}

TEST(NamespaceTree, SetAttrOnDirectoryFails) {
  NamespaceTree tree;
  (void)tree.create("d", FileType::kDirectory);
  EXPECT_EQ(tree.set_attr("d", 1, 1).status, OpStatus::kIsDirectory);
}

TEST(NamespaceTree, MutationBumpsParentMtime) {
  NamespaceTree tree;
  const std::uint64_t before = tree.attributes(kRootInode)->mtime;
  (void)tree.create("f", FileType::kFile);
  EXPECT_GT(tree.attributes(kRootInode)->mtime, before);
}

TEST(NamespaceTree, ComponentsCountedForCostModel) {
  NamespaceTree tree;
  (void)tree.create("a", FileType::kDirectory);
  (void)tree.create("a/b", FileType::kDirectory);
  (void)tree.create("a/b/c", FileType::kFile);
  EXPECT_EQ(tree.resolve("a/b/c").components, 3u);
  EXPECT_EQ(tree.resolve("a/missing").components, 2u);  // walked 2
}

TEST(NamespaceTree, ManyFilesStayConsistent) {
  NamespaceTree tree;
  (void)tree.create("dir", FileType::kDirectory);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(tree.create("dir/f" + std::to_string(i), FileType::kFile)
                  .status,
              OpStatus::kOk);
  }
  for (int i = 0; i < 500; i += 2) {
    EXPECT_EQ(tree.remove("dir/f" + std::to_string(i)).status,
              OpStatus::kOk);
  }
  EXPECT_EQ(tree.entry_count(tree.resolve("dir").inode), 250u);
  tree.check_consistency();
}

}  // namespace
}  // namespace anufs::fsmeta
