#include "sim/simulation.h"

#include <algorithm>

#include "common/assert.h"
#include "common/concurrency.h"

namespace lunule::sim {

Simulation::Simulation(std::unique_ptr<fs::NamespaceTree> tree,
                       std::unique_ptr<mds::MdsCluster> cluster,
                       std::unique_ptr<mds::DataPath> data,
                       std::unique_ptr<balancer::Balancer> balancer,
                       Options options, core::IfParams if_params)
    : tree_(std::move(tree)),
      cluster_(std::move(cluster)),
      data_(std::move(data)),
      balancer_(std::move(balancer)),
      options_(options),
      metrics_(static_cast<double>(options.epoch_ticks), if_params) {
  LUNULE_CHECK(tree_ != nullptr);
  LUNULE_CHECK(cluster_ != nullptr);
  LUNULE_CHECK(balancer_ != nullptr);
  LUNULE_CHECK(options_.epoch_ticks >= 1);
  LUNULE_CHECK(options_.sharded_ticks >= 1);
  if (options_.autoscaler.enabled) {
    autoscaler_ = std::make_unique<mds::Autoscaler>(options_.autoscaler);
  }
}

void Simulation::add_client(std::unique_ptr<workloads::Client> client) {
  clients_.push_back(std::move(client));
}

void Simulation::schedule(Tick t, std::function<void(Simulation&)> fn) {
  events_.emplace(t, std::move(fn));
}

void Simulation::set_cache_tier(std::unique_ptr<mds::CacheTier> tier) {
  LUNULE_CHECK(now_ == 0);
  cache_tier_ = std::move(tier);
  cluster_->set_cache_tier(cache_tier_.get());
}

void Simulation::set_fault_plan(const faults::FaultPlan& plan) {
  LUNULE_CHECK(now_ == 0);
  injector_ =
      plan.empty() ? nullptr
                   : std::make_unique<faults::FaultInjector>(*cluster_, plan);
}

std::size_t Simulation::clients_done() const {
  return static_cast<std::size_t>(std::count_if(
      clients_.begin(), clients_.end(),
      [](const std::unique_ptr<workloads::Client>& c) { return c->done(); }));
}

std::vector<double> Simulation::job_completion_seconds() const {
  std::vector<double> out;
  for (const auto& c : clients_) {
    if (c->done()) out.push_back(static_cast<double>(c->completion_tick()));
  }
  return out;
}

void Simulation::run_clients(WorkerPool& pool) {
  const std::size_t n = clients_.size();
  if (n == 0) return;
  const std::size_t n_ranks = cluster_->size();

  // Binding (serial): each client with a fetched op binds to the rank that
  // op resolves to; everything else routes through the deferred pass.  Rank
  // streams and the deferred pass visit clients in (k + tick) mod n order,
  // so early clients do not permanently win a bottleneck MDS's capacity.
  by_rank_.resize(n_ranks);
  for (auto& bucket : by_rank_) bucket.clear();
  deferred_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (k + static_cast<std::size_t>(now_)) % n;
    const MdsId r = clients_[idx]->shard_rank(*cluster_, now_);
    if (r == kNoMds) {
      deferred_[idx] = 1;
    } else {
      by_rank_[static_cast<std::size_t>(r)].push_back(idx);
    }
  }

  // Parallel rank streams.  Streams touch disjoint state: client objects
  // are partitioned, rank-local server/journal/fragment effects apply in
  // place, and anything shared escrows into the rank's lane.  A client
  // whose stream leaves its bound rank pauses and flags itself deferred —
  // its own slot in deferred_, so no synchronization is needed.
  lanes_.resize(n_ranks);
  pool.run_indexed(n_ranks, [&](std::size_t r) {
    lanes_[r].reset(static_cast<MdsId>(r), n_ranks);
    workloads::ShardBinding binding{static_cast<MdsId>(r), &lanes_[r]};
    for (const std::size_t idx : by_rank_[r]) {
      bool paused = false;
      clients_[idx]->run_tick(*cluster_, data_.get(), now_, &binding,
                              &paused);
      if (paused) deferred_[idx] = 1;
    }
  });

  // Serial merge in ascending rank order, then the deferred pass in
  // rotated order — both independent of S and worker scheduling.
  cluster_->merge_lanes(lanes_);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t idx = (k + static_cast<std::size_t>(now_)) % n;
    if (deferred_[idx] != 0) {
      clients_[idx]->run_tick(*cluster_, data_.get(), now_);
    }
  }
}

void Simulation::run() {
  balancer_->setup(*cluster_);

  // One persistent pool for the whole run: S - 1 workers plus the calling
  // thread, sized by the process-wide budget (S = 1, or a starved grant,
  // runs inline with identical results).  The cluster shares the pool for
  // its own parallel phases (epoch-close fold, candidate collection).
  const ConcurrencyGrant grant(
      static_cast<std::size_t>(options_.sharded_ticks) - 1);
  WorkerPool pool(grant.granted());
  cluster_->set_shard_pool(&pool);

  for (now_ = 0; now_ < options_.max_ticks; ++now_) {
    // Fire events scheduled for this tick.  They are detached first, so an
    // event may schedule later ones without disturbing this pass.
    auto range = events_.equal_range(now_);
    std::vector<std::function<void(Simulation&)>> due;
    for (auto it = range.first; it != range.second; ++it) {
      due.push_back(std::move(it->second));
    }
    events_.erase(range.first, range.second);
    for (const auto& fn : due) fn(*this);

    // Inject faults before the tick opens so budgets and authority reflect
    // the failure from its first affected tick.
    if (injector_ && !injector_->done()) injector_->on_tick(now_);

    cluster_->begin_tick(now_);
    if (data_) data_->begin_tick();

    run_clients(pool);
    cluster_->end_tick();
    // Rank-seconds billed this tick: the cost meter both fixed and elastic
    // pools are compared on.
    rank_seconds_ += cluster_->alive_count();

    if ((now_ + 1) % options_.epoch_ticks == 0) {
      const std::vector<Load> loads = cluster_->close_epoch();
      // Conservation audit of the just-closed epoch — before the balancer
      // reacts, so a violation is attributed to the epoch that produced it.
      // Free in production runs: release builds only check under
      // LUNULE_VALIDATE=1.
      if (obs::validation_enabled()) {
        std::uint64_t client_ops = 0;
        for (const auto& c : clients_) client_ops += c->meta_ops_completed();
        const std::vector<std::string> violations =
            invariants_.check_epoch(*cluster_, loads, client_ops);
        for (const std::string& violation : violations) {
          std::fprintf(stderr, "invariant violation (epoch %lld): %s\n",
                       static_cast<long long>(cluster_->epoch() - 1),
                       violation.c_str());
        }
        LUNULE_CHECK_MSG(violations.empty(),
                         "epoch invariants violated (see stderr)");
      }
      metrics_.on_epoch(*cluster_, loads);
      balancer_->on_epoch(*cluster_, loads);
      // Elasticity decisions run after the balancer so both see the same
      // closed-epoch loads and the balancer keeps first claim on the
      // migration pipeline.
      if (autoscaler_) autoscaler_->on_epoch(*cluster_, loads);
      if (options_.stop_on_memory_limit &&
          mds::memory_census(*tree_, cluster_->size(), options_.memory)
              .over_limit) {
        stopped_on_memory_ = true;
        ++now_;
        break;
      }
    }

    if (options_.stop_when_done && events_.empty() &&
        (!injector_ || injector_->done()) &&
        clients_done() == clients_.size()) {
      ++now_;
      break;
    }
  }
  end_tick_ = now_;
  // The pool dies with this frame; the cluster must not keep the pointer.
  cluster_->set_shard_pool(nullptr);
  // A run that gets here survived every epoch audit; say so when auditing
  // was requested, so "validation on and silent" is distinguishable from
  // "validation never ran".
  if (obs::validation_enabled() && invariants_.epochs_checked() > 0) {
    std::fprintf(stderr, "invariants: %llu epochs checked, 0 violations\n",
                 static_cast<unsigned long long>(
                     invariants_.epochs_checked()));
  }
}

}  // namespace lunule::sim
