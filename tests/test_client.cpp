// Tests for the closed-loop client: rate limiting, blocking, forwards,
// data-path coupling, and job completion.
#include "workloads/client.h"

#include <gtest/gtest.h>

#include "fs/builder.h"
#include "workloads/mdtest.h"
#include "workloads/scan.h"

namespace lunule::workloads {
namespace {

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() {
    dirs = fs::build_private_dirs(tree, "w", 3, 100);
    cp.n_mds = 3;
    cp.mds_capacity_iops = 50.0;
    cp.epoch_ticks = 1;
  }

  std::unique_ptr<WorkloadProgram> scan_of(DirId d, std::uint32_t files) {
    return std::make_unique<ScanProgram>(
        std::vector<DirId>{d}, std::vector<std::uint32_t>{files},
        1.0 - 1e-9);
  }

  fs::NamespaceTree tree;
  mds::ClusterParams cp;
  std::vector<DirId> dirs;
};

TEST_F(ClientTest, RespectsIssueRate) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0}, scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 0), 10u);
}

TEST_F(ClientTest, BlocksOnSaturatedMds) {
  mds::MdsCluster cluster(tree, cp);
  Client a(0, {.max_ops_per_tick = 60.0}, scan_of(dirs[0], 100));
  Client b(1, {.max_ops_per_tick = 60.0}, scan_of(dirs[1], 100));
  cluster.begin_tick(0);
  const std::uint32_t served_a = a.run_tick(cluster, nullptr, 0);
  const std::uint32_t served_b = b.run_tick(cluster, nullptr, 0);
  // Both dirs resolve to MDS 0 (capacity 50): together they cannot exceed it.
  EXPECT_EQ(served_a + served_b, 50u);
  EXPECT_GT(served_a, 0u);
}

TEST_F(ClientTest, StartTickDelaysIssue) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0, .start_tick = 5},
                scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 0), 0u);
  EXPECT_FALSE(client.started());
  cluster.begin_tick(5);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 5), 10u);
  EXPECT_TRUE(client.started());
}

TEST_F(ClientTest, CompletesAndRecordsTick) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 8.0}, scan_of(dirs[0], 20));
  Tick t = 0;
  while (!client.done() && t < 100) {
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
    ++t;
  }
  EXPECT_TRUE(client.done());
  EXPECT_EQ(client.meta_ops_completed(), 20u);
  EXPECT_EQ(client.completion_tick(), 2);  // 8 + 8 + 4
  // A done client never serves again.
  cluster.begin_tick(t);
  EXPECT_EQ(client.run_tick(cluster, nullptr, t), 0u);
}

TEST_F(ClientTest, CountsForwardsAcrossAuthorityBoundaries) {
  tree.set_auth(dirs[1], 2);
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0}, scan_of(dirs[1], 100));
  cluster.begin_tick(0);
  client.run_tick(cluster, nullptr, 0);
  // First access: path / -> /w -> /w/client1 crosses 0 -> 2 once.
  EXPECT_EQ(client.forwards(), 1u);
  cluster.begin_tick(1);
  client.run_tick(cluster, nullptr, 1);
  // Cached afterwards: no new forwards.
  EXPECT_EQ(client.forwards(), 1u);
}

TEST_F(ClientTest, StaleCacheReforwardsAfterMigration) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 5.0}, scan_of(dirs[0], 100));
  cluster.begin_tick(0);
  client.run_tick(cluster, nullptr, 0);
  const std::uint64_t before = client.forwards();
  tree.set_auth(dirs[0], 1);  // migration invalidates the cached location
  cluster.begin_tick(1);
  client.run_tick(cluster, nullptr, 1);
  EXPECT_GT(client.forwards(), before);
}

TEST_F(ClientTest, LeaseExpiryAloneRetraverses) {
  tree.set_auth(dirs[1], 2);
  mds::MdsCluster cluster(tree, cp);
  constexpr Tick kLease = 5;
  Client client(0, {.max_ops_per_tick = 10.0, .lease_ticks = kLease},
                scan_of(dirs[1], 100));
  std::uint32_t served[kLease + 1] = {};
  std::uint64_t fwd[kLease + 1] = {};
  for (Tick t = 0; t <= kLease; ++t) {
    cluster.begin_tick(t);
    served[t] = client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
    fwd[t] = client.forwards();
  }
  // Tick 0 resolves / -> /w -> /w/client1: one forward, one op of budget.
  EXPECT_EQ(fwd[0], 1u);
  EXPECT_EQ(served[0], 9u);
  // No authority moved, so the lease alone keeps the entry valid through
  // tick lease_ticks - 1 ...
  for (Tick t = 1; t < kLease; ++t) {
    EXPECT_EQ(fwd[t], 1u) << "tick " << t;
    EXPECT_EQ(served[t], 10u) << "tick " << t;
  }
  // ... and at tick lease_ticks it expires: the path is re-traversed and
  // the forward is counted, charged to the MDS and paid from the budget.
  EXPECT_EQ(fwd[kLease], 2u);
  EXPECT_EQ(served[kLease], 9u);
  EXPECT_EQ(cluster.total_forwards(), 2u);
}

TEST(ClientGrowthTest, ManyDirsWithMigrationMatchPinnedCounts) {
  // One client scans 6000 distinct dirs (two files each), then scans them
  // again in reverse, over scattered authority pins and a mid-run
  // migration of their parent.  The reverse pass revisits dirs after
  // every gap from ~0 to ~2x the lease, so it mixes lease hits (also on
  // entries that lived through rehashes), lease expiry and migration
  // staleness.  The location cache grows through several rehashes; the
  // forward and op counts are pinned from the dense per-dir arrays it
  // replaced.
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs = fs::build_private_dirs(tree, "g", 6000, 2);
  for (std::size_t i = 0; i < dirs.size(); i += 7) {
    tree.set_auth(dirs[i], static_cast<MdsId>(1 + i % 2));
  }
  mds::ClusterParams cp;
  cp.n_mds = 3;
  cp.mds_capacity_iops = 1e6;
  cp.epoch_ticks = 1;
  mds::MdsCluster cluster(tree, cp);
  std::vector<DirId> order = dirs;
  order.insert(order.end(), dirs.rbegin(), dirs.rend());
  const std::vector<std::uint32_t> files(order.size(), 2);
  Client client(0, {.max_ops_per_tick = 400.0, .lease_ticks = 40},
                std::make_unique<ScanProgram>(order, files, 1.0 - 1e-9));
  for (Tick t = 0; t < 75; ++t) {
    if (t == 10) tree.set_auth(tree.parent(dirs[0]), 2);
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
  }
  EXPECT_EQ(client.forwards(), 7180u);
  EXPECT_EQ(client.meta_ops_completed(), 22820u);
  // 6000 resolved dirs at load <= 1/2 need 16384 slots: the table grew
  // from its initial size through several rehashes.
  EXPECT_EQ(client.location_cache_slots(), 16384u);
}

TEST(ClientGrowthTest, CacheIsSizedByTouchedDirsNotNamespace) {
  fs::NamespaceTree tree;
  const std::vector<DirId> dirs =
      fs::build_private_dirs(tree, "big", 100'000, 1);
  mds::ClusterParams cp;
  cp.n_mds = 2;
  cp.mds_capacity_iops = 1e6;
  mds::MdsCluster cluster(tree, cp);
  const std::vector<DirId> touched(dirs.begin(), dirs.begin() + 10);
  Client client(0, {.max_ops_per_tick = 100.0},
                std::make_unique<ScanProgram>(
                    touched, std::vector<std::uint32_t>(10, 1), 1.0 - 1e-9));
  cluster.begin_tick(0);
  EXPECT_EQ(client.run_tick(cluster, nullptr, 0), 10u);
  EXPECT_TRUE(client.done());
  EXPECT_LE(client.location_cache_slots(), 32u);
}

TEST_F(ClientTest, DataPathStallsNextIssue) {
  mds::MdsCluster cluster(tree, cp);
  mds::DataPath data(2.0);  // only 2 data ops per tick
  auto prog = std::make_unique<ScanProgram>(
      std::vector<DirId>{dirs[0]}, std::vector<std::uint32_t>{100},
      0.5);  // one meta + one data per file
  Client client(0, {.max_ops_per_tick = 40.0}, std::move(prog));
  cluster.begin_tick(0);
  data.begin_tick();
  client.run_tick(cluster, &data, 0);
  // The data path throttles the closed loop to ~2 files per tick.
  EXPECT_LE(client.meta_ops_completed(), 3u);
  EXPECT_EQ(client.data_ops_completed(), 2u);
}

TEST_F(ClientTest, StallAccountingTracksBlockedTicks) {
  mds::MdsCluster cluster(tree, cp);  // capacity 50
  Client a(0, {.max_ops_per_tick = 50.0},
           std::make_unique<MdtestCreateProgram>(dirs[0], 0));
  Client b(1, {.max_ops_per_tick = 50.0},
           std::make_unique<MdtestCreateProgram>(dirs[1], 0));
  for (Tick t = 0; t < 10; ++t) {
    cluster.begin_tick(t);
    // Client `a` always runs first and drains the MDS; `b` starves.
    a.run_tick(cluster, nullptr, t);
    b.run_tick(cluster, nullptr, t);
    cluster.end_tick();
  }
  EXPECT_EQ(a.stalled_ticks(), 0u);
  EXPECT_EQ(b.stalled_ticks(), 10u);
  EXPECT_EQ(b.active_ticks(), 10u);
  EXPECT_DOUBLE_EQ(b.stall_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(a.stall_fraction(), 0.0);
}

TEST_F(ClientTest, CreateWorkloadGrowsDirectory) {
  mds::MdsCluster cluster(tree, cp);
  Client client(0, {.max_ops_per_tick = 10.0},
                std::make_unique<MdtestCreateProgram>(dirs[2], 30));
  for (Tick t = 0; t < 3; ++t) {
    cluster.begin_tick(t);
    client.run_tick(cluster, nullptr, t);
    cluster.end_tick();
  }
  EXPECT_EQ(tree.dir(dirs[2]).file_count(), 130u);  // 100 + 30 creates
  EXPECT_TRUE(client.done());
}

TEST_F(ClientTest, BatchedLatencyMatchesPerOpAdds) {
  mds::MdsCluster cluster(tree, cp);  // capacity 50
  Client a(0, {.max_ops_per_tick = 60.0}, scan_of(dirs[0], 100));
  Client hog(1, {.max_ops_per_tick = 60.0}, scan_of(dirs[1], 100));
  // Tick 0: `a` serves a run of 50 and blocks on its 51st op.
  cluster.begin_tick(0);
  ASSERT_EQ(a.run_tick(cluster, nullptr, 0), 50u);
  cluster.end_tick();
  // Tick 1: the hog drains the MDS first, so `a` stalls head-of-line.
  cluster.begin_tick(1);
  ASSERT_EQ(hog.run_tick(cluster, nullptr, 1), 50u);
  ASSERT_EQ(a.run_tick(cluster, nullptr, 1), 0u);
  cluster.end_tick();
  // Tick 2: the stalled op completes (latency 3), then a run of 49.
  cluster.begin_tick(2);
  ASSERT_EQ(a.run_tick(cluster, nullptr, 2), 50u);
  cluster.end_tick();

  Histogram per_op;
  for (int k = 0; k < 50; ++k) per_op.add(1.0);
  per_op.add(3.0);
  for (int k = 0; k < 49; ++k) per_op.add(1.0);
  const Histogram& got = a.op_latency();
  EXPECT_EQ(got.total_count(), per_op.total_count());
  EXPECT_EQ(got.mean(), per_op.mean());
  EXPECT_EQ(got.max_value(), per_op.max_value());
  for (const double p : {0.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(got.percentile(p), per_op.percentile(p)) << "p" << p;
  }
  EXPECT_EQ(got.max_value(), 3.0);
}

}  // namespace
}  // namespace lunule::workloads
