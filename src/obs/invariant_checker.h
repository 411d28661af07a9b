// Epoch-boundary conservation checks over the whole stats substrate.
//
// The paper's headline numbers (Imbalance Factor, Section 3.4 overhead
// table, per-MDS IOPS series) are all derived from the accounting this
// checker audits, so a silent bookkeeping bug corrupts every figure the
// repo reproduces.  The checker runs at epoch close — after load sampling,
// before the balancer reacts — and verifies:
//
//   1. Load conservation: the sampled per-MDS loads are exactly the
//      servers' last-epoch loads, and their sum times the epoch length
//      equals the operations actually served since the previous check.
//   2. Counter agreement: the flight recorder's monotonic counters
//      (ops served, migrations submitted/completed/aborted, migrated
//      inodes) match the engines' own totals — the trace layer and the
//      reporting layer must never tell different stories.
//   3. Authority partition: every directory and dirfrag resolves to a
//      valid MDS rank, per-frag file counts tile each directory exactly,
//      and billing every inode to its resolved authority covers the
//      namespace exactly once.
//   4. Migration-engine sanity: tasks have positive inode counts, distinct
//      endpoints in range, bounded progress, and per-exporter active counts
//      within the configured in-flight limit.
//   5. Journal coherence: the newest retained ESubtreeMap checkpoint of
//      every alive rank matches what the rank actually owns.
//   6. Hot paths against their naive references (check_hot_paths below):
//      the flat resolved-authority cache agrees with the uncached pin-chain
//      walk for every directory, no fragment's statistics run ahead of the
//      statistics clock, every fragment outside the access recorder's
//      active set is fully drained once rolled forward (the incremental
//      close never expired a directory that still carried signal), and, per
//      rank, the candidates with signal from the active-set scan equal
//      those from a whole-namespace scan, in the same order, and the
//      migration engine's frozen index lists exactly the tasks a fresh scan
//      finds in their frozen commit window, in task order.
//   7. Elasticity: ranks outside the serving set own/serve/carry nothing,
//      a draining rank is up, and the autoscaler.* counters agree with the
//      cluster's membership-change totals.
//   8. Completed ops and proxy cache-tier coherence: when the caller
//      supplies the clients' completed metadata ops, they equal the ops
//      the MDSs served plus the reads the proxy tier absorbed.  With a tier
//      installed, no live lease that a completed invalidation — mutation,
//      split, migration, crash, drain — should have revoked, TTLs bounded,
//      and the proxy.* counters agree with the tier's totals (see
//      docs/CACHING.md).
//   9. Async journal mode (journal.async_mode only): the acknowledged-but-
//      not-yet-durable window stays bounded (un-flushed EUpdate count at or
//      under max_unflushed_entries — the documented loss window), every
//      retained entry's dependency strictly precedes it and every durable
//      entry's dependency is itself durable (prefix consistency; what
//      replay.cpp audits after a crash must already hold before one), a
//      rank never acknowledges more entries than it appended, and the
//      journal.async_* counters agree with the journals' lifetime totals.
//
// Violations are returned as human-readable strings rather than aborted on,
// so tests can assert that a deliberately corrupted cluster is flagged; the
// simulation loop turns a non-empty result into a fatal LUNULE_CHECK.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"
#include "mds/cluster.h"

namespace lunule::obs {

/// Section 6 on its own: audits the incremental hot paths (authority
/// cache, incremental epoch close, active-set candidate scan, frozen-task
/// index) against the naive reference paths.  Stateless, so any caller may run it at any
/// epoch boundary (right after a close, when the active set is sorted).
/// Takes the cluster non-const because the candidate scans roll lagging
/// fragments forward, as every reader does; it restores them before
/// returning, so it leaves no trace in the statistics.
[[nodiscard]] std::vector<std::string> check_hot_paths(
    mds::MdsCluster& cluster);

class InvariantChecker {
 public:
  /// Audits one just-closed epoch.  Returns the violated invariants
  /// (empty = all hold).  Stateful: load conservation is checked against
  /// the served-operation total seen at the previous call, so use one
  /// checker instance per cluster for the whole run.
  /// `client_ops_completed` is Σ client meta_ops_completed(); without it
  /// (clusters driven without clients) the completed-ops check is skipped.
  [[nodiscard]] std::vector<std::string> check_epoch(
      mds::MdsCluster& cluster, std::span<const Load> loads,
      std::optional<std::uint64_t> client_ops_completed = std::nullopt);

  [[nodiscard]] std::uint64_t epochs_checked() const {
    return epochs_checked_;
  }

 private:
  std::uint64_t last_served_total_ = 0;
  std::uint64_t epochs_checked_ = 0;
  /// Per-rank up/down state at the previous check: a rank that went down
  /// mid-epoch (crash) legitimately closes that epoch with the load it
  /// served before dying, so zero-load is only demanded of ranks that
  /// were already down when the previous epoch closed.
  std::vector<bool> was_down_;
};

}  // namespace lunule::obs
