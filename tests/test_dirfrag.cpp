// Tests for dirfrag splitting and fragment statistics redistribution.
#include <gtest/gtest.h>

#include "fs/namespace_tree.h"

namespace lunule::fs {
namespace {

class DirfragTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_id = tree.add_dir(tree.root(), "big");
    tree.add_files(dir_id, 64);
  }

  NamespaceTree tree;
  DirId dir_id = kNoDir;
};

TEST_F(DirfragTest, UnfragmentedHasOneFrag) {
  EXPECT_FALSE(tree.fragmented(dir_id));
  EXPECT_EQ(tree.frag_count(dir_id), 1u);
  EXPECT_EQ(tree.frag(dir_id, 0).file_count, 64u);
  EXPECT_EQ(tree.frag_of(dir_id, 17), 0);
}

TEST_F(DirfragTest, SplitDistributesFilesEvenly) {
  tree.fragment_dir(dir_id, 3);  // 8 frags
  EXPECT_EQ(tree.frag_count(dir_id), 8u);
  for (FragId f = 0; f < 8; ++f) {
    EXPECT_EQ(tree.frag(dir_id, f).file_count, 8u);
  }
  EXPECT_EQ(tree.frag_of(dir_id, 13), 13 & 7);
}

TEST_F(DirfragTest, SplitPreservesVisitedCensus) {
  Directory& d = tree.dir(dir_id);
  // Mark files 0..15 visited.
  for (FileIndex i = 0; i < 16; ++i) d.file(i).last_access_epoch = 1;
  tree.frag(dir_id, 0).visited_files = 16;
  tree.fragment_dir(dir_id, 2);  // 4 frags of 16 files each
  std::uint32_t visited_total = 0;
  for (FragId f = 0; f < 4; ++f) {
    visited_total += tree.frag(dir_id, f).visited_files;
  }
  EXPECT_EQ(visited_total, 16u);
  // Files 0..15 interleave: each of the 4 frags holds exactly 4 of them.
  EXPECT_EQ(tree.frag(dir_id, 0).visited_files, 4u);
}

TEST_F(DirfragTest, SplitDividesHeatProportionally) {
  tree.frag(dir_id, 0).heat = 80.0;
  tree.fragment_dir(dir_id, 2);
  double total = 0.0;
  for (FragId f = 0; f < 4; ++f) total += tree.frag(dir_id, f).heat;
  EXPECT_NEAR(total, 80.0, 1e-9);
  EXPECT_NEAR(tree.frag(dir_id, 1).heat, 20.0, 1e-9);
}

TEST_F(DirfragTest, SplitScalesCuttingWindows) {
  FragStats& s = tree.frag(dir_id, 0);
  s.visits_window.push(40);
  s.visits_window.push(80);
  tree.fragment_dir(dir_id, 1);  // 2 frags
  const FragStats& f0 = tree.frag(dir_id, 0);
  EXPECT_EQ(f0.visits_window.size(), 2u);
  EXPECT_EQ(f0.visits_window.at(0), 40u);  // newest, halved
  EXPECT_EQ(f0.visits_window.at(1), 20u);
}

TEST_F(DirfragTest, RefragmentInheritsPins) {
  tree.fragment_dir(dir_id, 1);  // 2 frags
  tree.set_frag_auth(dir_id, 1, 3);
  tree.fragment_dir(dir_id, 2);  // refine to 4
  // New frags 1 and 3 refine old frag 1 (f & 1 == 1): both keep the pin.
  EXPECT_EQ(tree.frag(dir_id, 1).auth_pin, 3);
  EXPECT_EQ(tree.frag(dir_id, 3).auth_pin, 3);
  EXPECT_EQ(tree.frag(dir_id, 0).auth_pin, kNoMds);
}

TEST_F(DirfragTest, ShrinkingFragmentationIsRejected) {
  tree.fragment_dir(dir_id, 3);
  EXPECT_DEATH(tree.fragment_dir(dir_id, 1), "split");
}

TEST_F(DirfragTest, CreateIntoFragmentedDirLandsInRightFrag) {
  tree.fragment_dir(dir_id, 2);  // 4 frags, 16 files each
  const FileIndex idx = tree.create_file(dir_id);
  EXPECT_EQ(idx, 64u);
  EXPECT_EQ(tree.frag(dir_id, 64 & 3).file_count, 17u);
}

}  // namespace
}  // namespace lunule::fs
