#include "core/lunule_balancer.h"

#include <algorithm>
#include <numeric>

#include "balancer/candidates.h"
#include "common/assert.h"

namespace lunule::core {

LunuleParams LunuleParams::for_cluster(const mds::ClusterParams& cluster) {
  LunuleParams p;
  p.if_params.mds_capacity = cluster.mds_capacity_iops;
  // Cap: the load one MDS can realistically shed within one epoch; we tie
  // it to 90% of its capacity so a single decision never tries to empty an
  // MDS outright (the physical brake is the migration-pipeline inode cap).
  p.roles.epoch_capacity_cap = cluster.mds_capacity_iops * 0.9;
  // Per-epoch migration capacity in inodes: what the Migrator can stream.
  p.selector.inode_cap = static_cast<std::uint64_t>(
      cluster.migration.bandwidth_inodes_per_tick *
      static_cast<double>(cluster.epoch_ticks) *
      cluster.migration.max_inflight_per_exporter);
  p.selector.window_seconds = static_cast<double>(cluster.epoch_ticks) *
                              static_cast<double>(fs::kCuttingWindows);
  // Skip candidates the Migrator could not freeze anyway.
  p.selector.hot_skip_iops = cluster.migration.hot_abort_iops;
  return p;
}

LunuleBalancer::LunuleBalancer(LunuleParams params)
    : params_(params), selector_(params.selector) {
  LUNULE_CHECK(params_.if_threshold > 0.0 && params_.if_threshold < 1.0);
}

void LunuleBalancer::on_epoch(mds::MdsCluster& cluster,
                              std::span<const Load> loads) {
  std::vector<MdsLoadStat> stats = monitor_.collect(cluster, loads);
  // IF over the alive ranks only (the monitor already filtered): counting a
  // crashed rank's zero load would inflate the imbalance it reports.
  std::vector<double> alive_loads;
  alive_loads.reserve(stats.size());
  for (const MdsLoadStat& s : stats) alive_loads.push_back(s.cld);
  last_if_ = imbalance_factor(alive_loads, params_.if_params);
  last_plan_ = MigrationPlan{};
  if (last_if_ <= params_.if_threshold) return;

  // Lag awareness: the migration pipeline (in-flight + newly selected
  // inodes) is capped at one epoch's migration capacity.  While most of it
  // is still streaming, the measured loads do not reflect it yet and
  // re-planning would double-commit the same imbalance.
  const std::uint64_t backlog = cluster.migration().backlog_inodes();
  const std::uint64_t cap = params_.selector.inode_cap;
  const std::uint64_t budget = backlog < cap ? cap - backlog : 0;
  if (static_cast<double>(budget) <
      params_.min_pipeline_fraction * static_cast<double>(cap)) {
    return;
  }

  last_plan_ = decide_roles(stats, params_.roles, &cluster.trace());
  if (last_plan_.empty()) return;
  const std::vector<std::size_t> per_exporter =
      last_plan_.assignments_per_exporter();
  monitor_.record_decisions(per_exporter);

  // Group assignments per exporter so one selection pass covers all its
  // importers, then revise (drop) that exporter's stale queued tasks.
  for (const MdsId exporter : last_plan_.exporters) {
    std::vector<MigrationAssignment> mine;
    for (const MigrationAssignment& a : last_plan_.assignments) {
      if (a.exporter == exporter && a.amount > 0.0) mine.push_back(a);
    }
    if (mine.empty()) continue;
    cluster.migration().drop_queued(exporter);
    if (params_.workload_aware) {
      select_workload_aware(cluster, exporter, std::move(mine), budget);
    } else {
      select_heat_based(cluster, exporter,
                        loads[static_cast<std::size_t>(exporter)],
                        std::move(mine), budget);
    }
  }
}

void LunuleBalancer::select_workload_aware(
    mds::MdsCluster& cluster, MdsId exporter,
    std::vector<MigrationAssignment> assignments,
    std::uint64_t inode_budget) {
  const double total = std::accumulate(
      assignments.begin(), assignments.end(), 0.0,
      [](double acc, const MigrationAssignment& a) { return acc + a.amount; });
  std::vector<Selection> picks = selector_.select(
      cluster.tree(), exporter, total, inode_budget, cluster.candidate_dirs(),
      cluster.shard_pool());
  // Hand each selected subtree to the importer with the largest remaining
  // demand, decrementing by the subtree's predicted contribution.
  for (const Selection& pick : picks) {
    cluster.trace().record(obs::Component::kSelector,
                           {.kind = obs::EventKind::kSelection,
                            .a = exporter,
                            .b = pick.ref.frag,
                            .n0 = static_cast<std::int64_t>(pick.ref.dir),
                            .n1 = static_cast<std::int64_t>(pick.inodes),
                            .v0 = pick.index.alpha,
                            .v1 = pick.index.beta,
                            .v2 = pick.index.l_t,
                            .v3 = pick.index.l_s});
    auto it = std::max_element(assignments.begin(), assignments.end(),
                               [](const MigrationAssignment& a,
                                  const MigrationAssignment& b) {
                                 return a.amount < b.amount;
                               });
    if (it == assignments.end() || it->amount <= 0.0) break;
    if (cluster.migration().submit(pick.ref, it->importer)) {
      it->amount -= pick.predicted_iops;
    }
  }
}

void LunuleBalancer::select_heat_based(
    mds::MdsCluster& cluster, MdsId exporter, double exporter_load,
    std::vector<MigrationAssignment> assignments,
    std::uint64_t inode_budget) {
  // CephFS default selection (used by the -Light variant): rank by decayed
  // heat, estimate each candidate's load as its heat share.
  balancer::collect_candidates_into(heat_cands_, cluster.tree(), exporter,
                                    cluster.candidate_dirs(),
                                    cluster.shard_pool());
  const double total_heat = std::accumulate(
      heat_cands_.begin(), heat_cands_.end(), 0.0,
      [](double acc, const balancer::Candidate& c) { return acc + c.heat; });
  if (total_heat <= 0.0) return;
  std::sort(heat_cands_.begin(), heat_cands_.end(), balancer::heat_order);
  if (inode_budget == 0) inode_budget = params_.selector.inode_cap;
  std::size_t taken = 0;
  for (const balancer::Candidate& c : heat_cands_) {
    if (taken >= params_.selector.max_subtrees) break;
    if (c.heat <= 0.0) break;
    if (c.inodes > inode_budget) continue;
    auto it = std::max_element(assignments.begin(), assignments.end(),
                               [](const MigrationAssignment& a,
                                  const MigrationAssignment& b) {
                                 return a.amount < b.amount;
                               });
    if (it == assignments.end() || it->amount <= 0.0) break;
    const double est_load = exporter_load * (c.heat / total_heat);
    // CephFS default selection skips subtrees hotter than the target
    // amount (it would descend instead of exporting them whole).
    if (est_load > it->amount) continue;
    if (cluster.migration().submit(c.ref, it->importer)) {
      cluster.trace().record(obs::Component::kSelector,
                             {.kind = obs::EventKind::kHeatSelection,
                              .a = exporter,
                              .b = c.ref.frag,
                              .n0 = static_cast<std::int64_t>(c.ref.dir),
                              .n1 = static_cast<std::int64_t>(c.inodes),
                              .v0 = est_load});
      it->amount -= est_load;
      inode_budget -= c.inodes;
      ++taken;
    }
  }
}

}  // namespace lunule::core
