// The Lunule metadata load balancer (Section 3) and its -Light variant.
//
// Per epoch the balancer:
//   1. collects per-MDS loads through the centralized Load Monitor,
//   2. computes the Imbalance Factor (Eq. 3) and returns immediately while
//      IF stays below the trigger threshold — this is what tolerates benign
//      imbalance (Fig. 12b: no re-balance while all MDSs are lightly
//      loaded),
//   3. runs Algorithm 1 to assign exporter/importer roles and capped,
//      bidirectional migration amounts,
//   4. drops its own stale queued exports (plans are revised each epoch,
//      unlike the vanilla balancer's ever-growing queue), and
//   5. selects subtrees per exporter:
//        * Lunule       — the workload-aware mIndex selector (Section 3.3),
//        * Lunule-Light — CephFS's default heat-based selection, isolating
//          the benefit of the IF model alone (the paper's ablation).
#pragma once

#include <memory>
#include <vector>

#include "balancer/balancer.h"
#include "balancer/candidates.h"
#include "core/imbalance_factor.h"
#include "core/load_monitor.h"
#include "core/migration_initiator.h"
#include "core/subtree_selector.h"

namespace lunule::core {

struct LunuleParams {
  IfParams if_params;
  /// Re-balance triggers when IF exceeds this threshold.
  double if_threshold = 0.05;
  RoleDeciderParams roles;
  SelectorParams selector;
  /// false selects the -Light variant (default heat-based selection).
  bool workload_aware = true;
  /// Lag awareness: the in-flight migration backlog plus any new selection
  /// must never exceed one epoch's migration capacity (selector.inode_cap).
  /// A new plan is only issued when at least this fraction of the pipeline
  /// is free.  The vanilla balancer's ignorance of this lag is a root
  /// cause of its over-migration (Section 2.2, inefficiency #2).
  double min_pipeline_fraction = 0.1;

  /// Derives consistent defaults from the cluster configuration: C from the
  /// MDS capacity, Cap from the per-epoch migration bandwidth, and the
  /// selector's window span from the epoch length.
  [[nodiscard]] static LunuleParams for_cluster(
      const mds::ClusterParams& cluster);
};

class LunuleBalancer final : public balancer::Balancer {
 public:
  explicit LunuleBalancer(LunuleParams params);

  [[nodiscard]] std::string_view name() const override {
    return params_.workload_aware ? "Lunule" : "Lunule-Light";
  }

  void on_epoch(mds::MdsCluster& cluster,
                std::span<const Load> loads) override;

  /// IF value computed at the last epoch (reporting / tests).
  [[nodiscard]] double last_if() const { return last_if_; }
  [[nodiscard]] const MigrationPlan& last_plan() const { return last_plan_; }
  [[nodiscard]] const LoadMonitor& monitor() const { return monitor_; }
  [[nodiscard]] const LunuleParams& params() const { return params_; }

 private:
  void select_heat_based(mds::MdsCluster& cluster, MdsId exporter,
                         double exporter_load,
                         std::vector<MigrationAssignment> assignments,
                         std::uint64_t inode_budget);
  void select_workload_aware(mds::MdsCluster& cluster, MdsId exporter,
                             std::vector<MigrationAssignment> assignments,
                             std::uint64_t inode_budget);

  LunuleParams params_;
  SubtreeSelector selector_;
  LoadMonitor monitor_;
  double last_if_ = 0.0;
  MigrationPlan last_plan_;
  std::vector<balancer::Candidate> heat_cands_;  // reused across epochs
};

}  // namespace lunule::core
