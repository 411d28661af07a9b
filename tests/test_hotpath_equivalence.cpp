// Equivalence suite for the incremental hot paths.
//
// The authority cache, the lazy cutting-window advancement, and the
// active-set candidate scan are mechanical optimisations of naive paths
// that survive only as references in obs::check_hot_paths.  This suite
// runs a matrix of workload, fault, journal, and replication scenarios
// with that audit at every epoch boundary and asserts it never finds a
// divergence, plus targeted regressions: lazy FragStats advancement
// against the eager push sequence, and authority resolution on a
// pathologically deep directory chain (a recursive resolver would have to
// walk — and allocate stack for — every level).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fs/dirfrag.h"
#include "fs/namespace_tree.h"
#include "sim/scenario.h"

namespace lunule {
namespace {

// -- FragStats lazy advancement ------------------------------------------

/// Applies one eager epoch close to `f` (the historical per-close body).
void eager_close(fs::FragStats& f, double decay) {
  f.visits_window.push(f.visits_epoch);
  f.file_visits_window.push(f.file_visits_epoch);
  f.first_visits_window.push(f.first_visits_epoch);
  f.recurrent_window.push(f.recurrent_epoch);
  f.creates_window.push(f.creates_epoch);
  f.sibling_credit_window.push(f.sibling_credit_epoch);
  f.visits_epoch = 0;
  f.file_visits_epoch = 0;
  f.first_visits_epoch = 0;
  f.recurrent_epoch = 0;
  f.creates_epoch = 0;
  f.sibling_credit_epoch = 0.0;
  f.heat *= decay;
  if (f.heat < 0.01) f.heat = 0.0;
  ++f.stats_epoch;
}

void expect_same_observables(const fs::FragStats& a, const fs::FragStats& b) {
  EXPECT_DOUBLE_EQ(a.heat, b.heat);
  EXPECT_EQ(a.visits_window.window_sum(), b.visits_window.window_sum());
  EXPECT_EQ(a.file_visits_window.window_sum(),
            b.file_visits_window.window_sum());
  EXPECT_EQ(a.first_visits_window.window_sum(),
            b.first_visits_window.window_sum());
  EXPECT_EQ(a.recurrent_window.window_sum(), b.recurrent_window.window_sum());
  EXPECT_EQ(a.creates_window.window_sum(), b.creates_window.window_sum());
  EXPECT_DOUBLE_EQ(a.sibling_credit_window.window_sum(),
                   b.sibling_credit_window.window_sum());
  for (std::size_t i = 0; i < a.visits_window.size() && i < b.visits_window.size();
       ++i) {
    EXPECT_EQ(a.visits_window.at(i), b.visits_window.at(i)) << "entry " << i;
  }
}

TEST(LazyAdvancement, MatchesEagerCloseSequence) {
  constexpr double kDecay = 0.8;
  for (EpochId gap = 1; gap <= 12; ++gap) {
    fs::FragStats lazy;
    lazy.visits_epoch = 7;
    lazy.file_visits_epoch = 5;
    lazy.first_visits_epoch = 3;
    lazy.recurrent_epoch = 2;
    lazy.creates_epoch = 1;
    lazy.sibling_credit_epoch = 1.5;
    lazy.heat = 40.0;
    lazy.visits_window.push(11);  // pre-existing history
    fs::FragStats eager = lazy;

    lazy.advance_to(gap, kDecay);
    for (EpochId e = 0; e < gap; ++e) eager_close(eager, kDecay);

    expect_same_observables(lazy, eager);
    EXPECT_EQ(lazy.stats_epoch, eager.stats_epoch);
  }
}

TEST(LazyAdvancement, DeadEpochPredictionIsExact) {
  constexpr double kDecay = 0.8;
  fs::FragStats f;
  f.visits_epoch = 9;
  f.heat = 2.0;
  f.advance_to(1, kDecay);  // fold; prediction is valid after a fold
  const EpochId dead = f.compute_dead_epoch(kDecay);
  ASSERT_GT(dead, f.stats_epoch);

  // One close before the predicted epoch the frag must still be live...
  fs::FragStats probe = f;
  probe.advance_to(dead - 1, kDecay);
  EXPECT_TRUE(probe.heat > 0.0 || probe.visits_window.window_sum() > 0 ||
              probe.first_visits_window.window_sum() > 0 ||
              probe.sibling_credit_window.window_sum() > 0.0);
  // ... and exactly at it, fully drained.
  probe = f;
  probe.advance_to(dead, kDecay);
  EXPECT_EQ(probe.heat, 0.0);
  EXPECT_EQ(probe.visits_window.window_sum(), 0u);
  EXPECT_EQ(probe.first_visits_window.window_sum(), 0u);
  EXPECT_EQ(probe.sibling_credit_window.window_sum(), 0.0);
}

// -- Deep-chain authority resolution --------------------------------------

TEST(DeepChain, IterativeAuthorityResolutionHandlesDeepTrees) {
  constexpr int kDepth = 20000;
  fs::NamespaceTree tree;
  std::vector<DirId> chain;
  chain.reserve(kDepth);
  DirId parent = tree.root();
  for (int i = 0; i < kDepth; ++i) {
    parent = tree.add_dir(parent, "d");
    chain.push_back(parent);
  }
  tree.add_files(chain.back(), 10);

  // Root-only pins: the leaf inherits across the whole chain.
  const DirId leaf = chain.back();
  EXPECT_EQ(tree.auth_of(leaf), 0);
  // A pin half-way down shadows the root for everything beneath it.
  const DirId mid = chain[kDepth / 2];
  tree.set_auth(mid, 3);
  EXPECT_EQ(tree.auth_of(leaf), 3);
  EXPECT_EQ(tree.auth_of(chain[kDepth / 2 - 1]), 0);
  // Cache and uncached pin walk agree at every probe depth.
  for (const DirId probe : {chain.front(), mid, leaf}) {
    EXPECT_EQ(tree.auth_of(probe), tree.resolve_auth_uncached(probe));
  }
  EXPECT_EQ(tree.resolve_auth_uncached(leaf), 3);

  // Subtree traversals (also iterative) survive the same depth.
  EXPECT_EQ(tree.exclusive_inodes({.dir = mid}),
            static_cast<std::uint64_t>(kDepth / 2) + 10);
  EXPECT_EQ(tree.migrate_subtree({.dir = chain.back()}, 1), 10u + 1u);
  EXPECT_EQ(tree.auth_of(leaf), 1);
  // Re-pinning the leaf to what it would inherit anyway must simplify away.
  tree.migrate_subtree({.dir = leaf}, 3);
  tree.simplify_auth();
  EXPECT_EQ(tree.explicit_auth(leaf), kNoMds);
  EXPECT_EQ(tree.auth_of(leaf), 3);
}

// -- Scenario matrix: incremental paths vs their references ---------------

/// Runs `cfg` with obs::check_hot_paths at every epoch boundary and asserts
/// that no audit found the incremental paths diverging from the naive ones.
void expect_equivalent(const sim::ScenarioConfig& cfg) {
  const sim::HotPathAudit audit = sim::run_with_hot_path_audit(cfg);
  // At least ten epochs close before any of these workloads completes.
  EXPECT_GE(audit.audits, 10u);
  EXPECT_TRUE(audit.violations.empty())
      << audit.violations.size() << " violations; first: "
      << audit.violations.front();
}

sim::ScenarioConfig small_config(sim::WorkloadKind w, sim::BalancerKind b) {
  sim::ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.n_clients = 12;
  cfg.scale = 0.15;
  cfg.max_ticks = 300;
  cfg.seed = 1234;
  return cfg;
}

TEST(HotPathEquivalence, MixedWorkloadLunule) {
  expect_equivalent(
      small_config(sim::WorkloadKind::kMixed, sim::BalancerKind::kLunule));
}

TEST(HotPathEquivalence, ShardedMixedWorkloadLunule) {
  // Rank streams on worker threads: the authority cache's concurrent
  // relaxed-atomic fill is the only resolution path they use.
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kMixed, sim::BalancerKind::kLunule);
  cfg.sharded_ticks = 4;
  expect_equivalent(cfg);
}

TEST(HotPathEquivalence, ZipfVanilla) {
  expect_equivalent(
      small_config(sim::WorkloadKind::kZipf, sim::BalancerKind::kVanilla));
}

TEST(HotPathEquivalence, WebGreedySpill) {
  expect_equivalent(
      small_config(sim::WorkloadKind::kWeb, sim::BalancerKind::kGreedySpill));
}

TEST(HotPathEquivalence, MdLunuleHashWithReplication) {
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kMd, sim::BalancerKind::kLunuleHash);
  cfg.replicate_threshold_iops = 30.0;
  expect_equivalent(cfg);
}

TEST(HotPathEquivalence, FaultyZipfLunule) {
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kZipf, sim::BalancerKind::kLunule);
  cfg.faults.crash(0, 60, 80).slow(2, 150, 40, 0.5).abort_migrations(100);
  expect_equivalent(cfg);
}

TEST(HotPathEquivalence, JournaledCnnLunuleWithStallAndCrash) {
  sim::ScenarioConfig cfg =
      small_config(sim::WorkloadKind::kCnn, sim::BalancerKind::kLunule);
  cfg.journal.enabled = true;
  cfg.faults.journal_stall(1, 40, 30).crash(1, 90, 60);
  expect_equivalent(cfg);
}

}  // namespace
}  // namespace lunule
