// End-to-end benchmark harness for the simulator (see perfbench/README.md).
//
//   lunule_perfbench --workload W --seed N --mode timed|traced|check
//                    [--seconds T] [--spans FILE] [--heldout-seed M]
//
// Every mode runs the scenarios of workload W built from seed N through the
// public lunule_sim API and prints one JSON object on stdout.
//
//   timed   Repeats untraced passes (make_scenario + Simulation::run for
//           every scenario; S=1 scenarios side by side) until T seconds
//           have elapsed; reports each scenario's host times per pass, the
//           modeled results, the process's peak RSS and a digest of each
//           scenario's modeled outcome.
//   traced  Alternates an untraced pass with a traced pass until T seconds
//           have elapsed.  The traced pass drives the scenario with a
//           bench-side mirror of Simulation::run's sharded tick that calls
//           the layers' public functions and records a span around each
//           call; the per-layer metrics come from the median traced pass,
//           whose spans go to FILE (--spans).
//   check   One untimed pass on seed N and one on the held-out seed M
//           (--heldout-seed): the untraced run and the traced mirror of
//           every scenario (plus an S=1 rerun of sharded scenarios), with
//           their digests compared and served-op conservation checked.
//           The caller sets LUNULE_VALIDATE=1 for this mode.
//
// The mirror covers the configurations the workloads use: no scheduled
// events, faults, cache tier, data path or autoscaler.  It refuses others.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/concurrency.h"
#include "common/worker_pool.h"
#include "obs/invariant_checker.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "sim/simulation.h"

namespace lunule::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// -- Workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<sim::ScenarioConfig> scenarios;
};

sim::ScenarioConfig base_config(sim::WorkloadKind w, sim::BalancerKind b,
                                std::uint64_t seed) {
  sim::ScenarioConfig cfg;
  cfg.workload = w;
  cfg.balancer = b;
  cfg.seed = seed;
  return cfg;
}

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload* out) {
  out->name = name;
  out->scenarios.clear();
  if (name == "paper-matrix") {
    // fig07 defaults: 5 MDS, 100 clients, scale 0.25, 1800-tick horizon.
    for (const sim::WorkloadKind w :
         {sim::WorkloadKind::kCnn, sim::WorkloadKind::kNlp,
          sim::WorkloadKind::kWeb, sim::WorkloadKind::kZipf,
          sim::WorkloadKind::kMd}) {
      for (const sim::BalancerKind b :
           {sim::BalancerKind::kVanilla, sim::BalancerKind::kLunule}) {
        sim::ScenarioConfig cfg = base_config(w, b, seed);
        cfg.n_mds = 5;
        cfg.n_clients = 100;
        cfg.scale = 0.25;
        cfg.max_ticks = 1800;
        cfg.sharded_ticks = 1;
        out->scenarios.push_back(cfg);
      }
    }
    return true;
  }
  if (name == "scaleout-s4") {
    for (const sim::WorkloadKind w :
         {sim::WorkloadKind::kZipf, sim::WorkloadKind::kMd}) {
      sim::ScenarioConfig cfg =
          base_config(w, sim::BalancerKind::kLunule, seed);
      cfg.n_mds = 16;
      cfg.n_clients = 2000;
      cfg.scale = 0.05;
      cfg.max_ticks = 300;
      cfg.sharded_ticks = 4;
      out->scenarios.push_back(cfg);
    }
    return true;
  }
  if (name == "tenant-100k") {
    sim::ScenarioConfig cfg = base_config(sim::WorkloadKind::kTenant,
                                          sim::BalancerKind::kLunule, seed);
    cfg.n_mds = 16;
    cfg.n_clients = 400;
    cfg.scale = 50.0;  // 100k tenant directories
    cfg.max_ticks = 300;
    cfg.journal.enabled = true;
    cfg.sharded_ticks = 4;
    out->scenarios.push_back(cfg);
    return true;
  }
  if (name == "tiny") {
    // Harness self-test: seconds-scale versions of all three shapes.
    for (const sim::WorkloadKind w :
         {sim::WorkloadKind::kCnn, sim::WorkloadKind::kZipf,
          sim::WorkloadKind::kTenant}) {
      sim::ScenarioConfig cfg =
          base_config(w, sim::BalancerKind::kLunule, seed);
      cfg.n_mds = 4;
      cfg.n_clients = 24;
      cfg.scale = 0.02;
      cfg.max_ticks = 120;
      cfg.journal.enabled = w == sim::WorkloadKind::kTenant;
      cfg.sharded_ticks = 2;
      out->scenarios.push_back(cfg);
    }
    return true;
  }
  return false;
}

// -- Modeled outcome ---------------------------------------------------------

/// Everything the fidelity checks compare, reduced to one digest plus the
/// totals the end-to-end metrics need.
struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t served = 0;        // cluster total_served
  std::uint64_t client_ops = 0;    // sum of clients' meta_ops_completed
  Tick end_tick = 0;
  double mean_if = 0.0;
};

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

Outcome outcome_of(const mds::MdsCluster& cluster,
                   const std::vector<std::unique_ptr<workloads::Client>>&
                       clients,
                   const sim::MetricsCollector& metrics, Tick end_tick) {
  Outcome o;
  Fnv h;
  for (std::size_t m = 0; m < cluster.size(); ++m) {
    const mds::MdsServer& s = cluster.server(static_cast<MdsId>(m));
    h.add(s.total_served());
    h.add(s.total_forwards());
  }
  o.served = cluster.total_served();
  o.end_tick = end_tick;
  o.mean_if = metrics.mean_if(/*skip=*/3);
  h.add(cluster.migration().total_migrated_inodes());
  h.add(static_cast<std::uint64_t>(end_tick));
  for (const auto& c : clients) {
    h.add(static_cast<std::uint64_t>(c->done() ? c->completion_tick() : -1));
    h.add(c->meta_ops_completed());
    o.client_ops += c->meta_ops_completed();
  }
  for (const double v : metrics.if_series().values()) h.add_double(v);
  o.digest = h.value();
  return o;
}

bool same_outcome(const Outcome& a, const Outcome& b) {
  return a.digest == b.digest && a.served == b.served &&
         a.end_tick == b.end_tick && a.mean_if == b.mean_if;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// -- Traced mirror of Simulation::run ----------------------------------------

/// One recorded span: a layer call, timed from outside.  `parent` is the
/// tick (tick-phase spans) or epoch (epoch-phase spans) that caused it;
/// rank-stream spans carry the rank in `rank`.
struct Span {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;
  std::int32_t rank;
};

/// Per-layer totals of one traced pass (summed over its scenarios).
struct Layers {
  std::int64_t wall_ns = 0;
  std::int64_t bind_ns = 0;
  std::int64_t stream_wall_ns = 0;
  std::int64_t stream_work_ns = 0;
  std::int64_t stream_critical_ns = 0;
  std::int64_t merge_ns = 0;
  std::int64_t deferred_ns = 0;
  std::int64_t begin_tick_ns = 0;
  std::int64_t end_tick_ns = 0;
  std::int64_t close_epoch_ns = 0;
  std::int64_t balancer_ns = 0;
  std::int64_t metrics_ns = 0;
  /// Σ over ticks of (threads available to the stream phase × its wall).
  double stream_capacity_ns = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t epochs = 0;
  std::uint64_t pool_workers = 0;
  std::uint64_t eligible = 0;   // client visits that could issue
  std::uint64_t deferred = 0;   // of those, run in the deferred pass
  std::uint64_t paused = 0;     // rank-stream clients that paused
  std::uint64_t bound = 0;      // client visits bound to a rank stream
  std::uint64_t largest_bucket = 0;  // Σ over ticks of the largest stream
  std::uint64_t stream_ops = 0;
  std::uint64_t ops_served = 0;
  std::uint64_t forwards = 0;
  std::uint64_t mig_submitted = 0;
  std::uint64_t mig_completed = 0;
  std::uint64_t mig_aborted = 0;
  std::uint64_t migrated_inodes = 0;
  std::uint64_t mig_valid = 0;
  std::uint64_t active_dirs_sum = 0;
  std::uint64_t dirs = 0;
  std::uint64_t journal_entries = 0;
  std::uint64_t journal_bytes = 0;
  double stall_sum = 0.0;
  std::uint64_t clients = 0;
  std::uint64_t invariant_violations = 0;
};

class Tracer {
 public:
  explicit Tracer(std::vector<Span>* spans) : spans_(spans) {}

  /// Times `fn` as span `name`, adds its duration to `*total` and
  /// returns it.
  template <typename Fn>
  std::int64_t span(const char* name, std::int64_t parent,
                    std::int64_t* total, Fn&& fn) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    *total += t1 - t0;
    if (spans_ != nullptr) spans_->push_back({name, t0, t1, parent, -1});
    return t1 - t0;
  }

  void record(const Span& s) {
    if (spans_ != nullptr) spans_->push_back(s);
  }

 private:
  std::vector<Span>* spans_;
};

/// True when the mirror below reproduces Simulation::run for `cfg`.
bool mirror_supports(const sim::ScenarioConfig& cfg) {
  return cfg.sharded_ticks >= 1 && cfg.faults.empty() && !cfg.data_enabled &&
         !cfg.proxy.enabled && !cfg.autoscaler.enabled;
}

/// Builds the scenario and drives it with a bench-side copy of
/// Simulation::run's sharded tick, timing each layer call.  Returns the
/// modeled outcome; adds to `*L`.
Outcome run_mirror(const sim::ScenarioConfig& cfg, Layers* L,
                   std::vector<Span>* spans) {
  std::unique_ptr<sim::Simulation> sim = sim::make_scenario(cfg);

  mds::MdsCluster& cluster = sim->cluster();
  balancer::Balancer& bal = sim->balancer();
  const std::vector<std::unique_ptr<workloads::Client>>& clients =
      sim->clients();
  core::IfParams if_params;
  if_params.mds_capacity = cfg.mds_capacity_iops;
  sim::MetricsCollector metrics(static_cast<double>(cfg.epoch_ticks),
                                if_params);
  obs::InvariantChecker invariants;
  const bool validate = obs::validation_enabled();
  Tracer tr(spans);

  const std::size_t n = clients.size();
  std::vector<std::vector<std::size_t>> by_rank;
  std::vector<std::uint8_t> deferred;
  std::vector<mds::TickLane> lanes;
  std::vector<std::int64_t> rank_t0;
  std::vector<std::int64_t> rank_t1;

  const std::int64_t w0 = now_ns();
  bal.setup(cluster);
  ConcurrencyGrant grant(static_cast<std::size_t>(cfg.sharded_ticks) - 1);
  WorkerPool pool(grant.granted());
  cluster.set_shard_pool(&pool);
  const double threads = static_cast<double>(pool.workers() + 1);

  Tick now = 0;
  for (now = 0; now < cfg.max_ticks; ++now) {
    tr.span("mds.begin_tick", now, &L->begin_tick_ns,
            [&] { cluster.begin_tick(now); });
    const std::size_t n_ranks = cluster.size();

    tr.span("sim.bind", now, &L->bind_ns, [&] {
      by_rank.resize(n_ranks);
      for (auto& bucket : by_rank) bucket.clear();
      deferred.assign(n, 0);
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (k + static_cast<std::size_t>(now)) % n;
        const MdsId r = clients[idx]->shard_rank(cluster, now);
        if (r == kNoMds) {
          deferred[idx] = 1;
        } else {
          by_rank[static_cast<std::size_t>(r)].push_back(idx);
        }
      }
    });
    std::size_t bound = 0;
    std::size_t largest = 0;
    for (const auto& bucket : by_rank) {
      bound += bucket.size();
      largest = std::max(largest, bucket.size());
    }
    // Visits of clients that could issue this tick: every bound client,
    // and the deferred ones that are started and not done.
    std::size_t eligible = 0;
    for (const auto& c : clients) {
      if (!c->done() && now >= c->params().start_tick) ++eligible;
    }
    L->eligible += eligible;
    L->deferred += eligible - bound;
    L->bound += bound;
    L->largest_bucket += largest;

    lanes.resize(n_ranks);
    rank_t0.assign(n_ranks, 0);
    rank_t1.assign(n_ranks, 0);
    const std::int64_t stream_ns =
        tr.span("sim.stream", now, &L->stream_wall_ns, [&] {
          pool.run_indexed(n_ranks, [&](std::size_t r) {
            rank_t0[r] = now_ns();
            lanes[r].reset(static_cast<MdsId>(r), n_ranks);
            workloads::ShardBinding binding{static_cast<MdsId>(r),
                                            &lanes[r]};
            for (const std::size_t idx : by_rank[r]) {
              bool paused = false;
              clients[idx]->run_tick(cluster, nullptr, now, &binding,
                                     &paused);
              if (paused) deferred[idx] = 1;
            }
            rank_t1[r] = now_ns();
          });
        });
    std::int64_t critical = 0;
    for (std::size_t r = 0; r < n_ranks; ++r) {
      const std::int64_t d = rank_t1[r] - rank_t0[r];
      L->stream_work_ns += d;
      critical = std::max(critical, d);
      L->stream_ops += lanes[r].ops_tallied;
      tr.record({"sim.rank_stream", rank_t0[r], rank_t1[r], now,
                 static_cast<std::int32_t>(r)});
      for (const std::size_t idx : by_rank[r]) {
        L->paused += deferred[idx];
        L->deferred += deferred[idx];
      }
    }
    L->stream_critical_ns += critical;
    L->stream_capacity_ns += threads * static_cast<double>(stream_ns);

    tr.span("mds.merge_lanes", now, &L->merge_ns,
            [&] { cluster.merge_lanes(lanes); });
    tr.span("workloads.deferred", now, &L->deferred_ns, [&] {
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = (k + static_cast<std::size_t>(now)) % n;
        if (deferred[idx] != 0) {
          clients[idx]->run_tick(cluster, nullptr, now);
        }
      }
    });
    tr.span("mds.end_tick", now, &L->end_tick_ns, [&] { cluster.end_tick(); });

    if ((now + 1) % cfg.epoch_ticks == 0) {
      const EpochId epoch = cluster.epoch();
      std::vector<Load> loads;
      tr.span("mds.close_epoch", epoch, &L->close_epoch_ns, [&] {
        loads = cluster.close_epoch();
        if (validate) {
          for (const std::string& v : invariants.check_epoch(cluster, loads)) {
            std::fprintf(stderr, "invariant violation (epoch %lld): %s\n",
                         static_cast<long long>(epoch), v.c_str());
            ++L->invariant_violations;
          }
        }
      });
      tr.span("sim.metrics", epoch, &L->metrics_ns,
              [&] { metrics.on_epoch(cluster, loads); });
      tr.span("balancer.on_epoch", epoch, &L->balancer_ns,
              [&] { bal.on_epoch(cluster, loads); });
      ++L->epochs;
      L->active_dirs_sum += cluster.recorder().active_dirs().size();
    }
    if (cfg.stop_when_done &&
        std::all_of(clients.begin(), clients.end(),
                    [](const auto& c) { return c->done(); })) {
      ++now;
      break;
    }
  }
  cluster.set_shard_pool(nullptr);
  L->wall_ns += now_ns() - w0;

  L->ticks += static_cast<std::uint64_t>(now);
  L->pool_workers = std::max<std::uint64_t>(L->pool_workers, pool.workers());
  L->ops_served += cluster.total_served();
  L->forwards += cluster.total_forwards();
  L->mig_submitted += cluster.migration().migrations_submitted();
  L->mig_completed += cluster.migration().migrations_completed();
  L->mig_aborted += cluster.migration().migrations_aborted();
  L->migrated_inodes += cluster.migration().total_migrated_inodes();
  L->mig_valid += cluster.audit().valid();
  L->dirs += cluster.tree().dir_count();
  if (cluster.journaling()) {
    const mds::MdsCluster::JournalTotals jt = cluster.journal_totals();
    L->journal_entries += jt.appends;
    L->journal_bytes += jt.bytes_written;
  }
  for (const auto& c : clients) L->stall_sum += c->stall_fraction();
  L->clients += clients.size();
  return outcome_of(cluster, clients, metrics, now);
}

// -- Untraced runs -----------------------------------------------------------

struct PlainRun {
  Outcome outcome;
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  /// Pool workers the run's ConcurrencyGrant received (the budget can
  /// grant fewer than sharded_ticks - 1).
  std::size_t granted = 0;
};

/// make_scenario + Simulation::run, each timed.
PlainRun run_plain(const sim::ScenarioConfig& cfg) {
  PlainRun out;
  const std::int64_t s0 = now_ns();
  std::unique_ptr<sim::Simulation> sim = sim::make_scenario(cfg);
  const std::int64_t s1 = now_ns();
  out.granted = std::min(static_cast<std::size_t>(cfg.sharded_ticks) - 1,
                         ConcurrencyBudget::instance().available());
  sim->run();
  const std::int64_t s2 = now_ns();
  out.setup_ns = s1 - s0;
  out.wall_ns = s2 - s1;
  out.outcome = outcome_of(sim->cluster(), sim->clients(), sim->metrics(),
                           sim->end_tick());
  return out;
}

/// Runs fn(0..n-1) on up to hardware_concurrency threads, the calling
/// thread included.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  const std::size_t n_threads = std::min<std::size_t>(
      n, std::max(1U, std::thread::hardware_concurrency()));
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 1; t < n_threads; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
}

/// One untraced pass.  With `side_by_side`, scenarios with S=1 (which use
/// no worker pool) run one per host thread, as the figure benches run them
/// (sim::run_scenarios); on a shared VM that averaged the drift of single
/// runs.  Sharded scenarios always run one at a time, so each gets the
/// worker grant it would get alone.
std::vector<PlainRun> run_plain_pass(const Workload& w, bool side_by_side) {
  std::vector<PlainRun> pass(w.scenarios.size());
  side_by_side =
      side_by_side &&
      std::all_of(w.scenarios.begin(), w.scenarios.end(),
                  [](const auto& cfg) { return cfg.sharded_ticks == 1; });
  if (side_by_side) {
    parallel_for(pass.size(),
                 [&](std::size_t i) { pass[i] = run_plain(w.scenarios[i]); });
  } else {
    for (std::size_t i = 0; i < pass.size(); ++i) {
      pass[i] = run_plain(w.scenarios[i]);
    }
  }
  return pass;
}

struct TracedPass {
  Layers layers;
  std::vector<Outcome> outcomes;
  std::vector<Span> spans;
};

TracedPass run_traced_pass(const Workload& w, bool keep_spans) {
  TracedPass pass;
  if (keep_spans) pass.spans.reserve(1 << 16);
  for (const sim::ScenarioConfig& cfg : w.scenarios) {
    pass.outcomes.push_back(
        run_mirror(cfg, &pass.layers, keep_spans ? &pass.spans : nullptr));
  }
  return pass;
}

// -- JSON output -------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }

std::string quote(const std::string& s) { return "\"" + s + "\""; }

std::string scenario_name(const sim::ScenarioConfig& cfg) {
  return std::string(sim::workload_name(cfg.workload)) + "/" +
         std::string(sim::balancer_name(cfg.balancer)) + "/S" +
         std::to_string(cfg.sharded_ticks);
}

class Checks {
 public:
  void expect(bool ok, const std::string& name) {
    items_.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", name.c_str());
  }
  void append(const Checks& other) {
    for (const auto& item : other.items_) items_.push_back(item);
  }
  [[nodiscard]] std::string json() const {
    std::string out = "[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) out += ",";
      out += "{\"name\":" + quote(items_[i].first) +
             ",\"ok\":" + (items_[i].second ? "true" : "false") + "}";
    }
    return out + "]";
  }

 private:
  std::vector<std::pair<std::string, bool>> items_;
};

std::string outcome_json(const std::string& name, const Outcome& o,
                         std::size_t granted) {
  return "{\"name\":" + quote(name) + ",\"digest\":" + quote(hex(o.digest)) +
         ",\"served\":" + num(o.served) + ",\"client_ops\":" +
         num(o.client_ops) +
         ",\"end_tick\":" + std::to_string(o.end_tick) +
         ",\"mean_if\":" + num(o.mean_if) +
         ",\"granted_workers\":" + num(std::uint64_t{granted}) + "}";
}

std::string scenarios_json(const Workload& w,
                           const std::vector<PlainRun>& pass) {
  std::string out = "[";
  for (std::size_t i = 0; i < pass.size(); ++i) {
    if (i != 0) out += ",";
    out += outcome_json(scenario_name(w.scenarios[i]), pass[i].outcome,
                        pass[i].granted);
  }
  return out + "]";
}

std::string host_json() {
  return "{\"nproc\":" +
         num(std::uint64_t{std::thread::hardware_concurrency()}) +
         ",\"budget_workers\":" +
         num(std::uint64_t{ConcurrencyBudget::instance().total()}) +
         ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"validate\":" + (obs::validation_enabled() ? "true" : "false") +
         "}";
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num_v, double den) {
  return den == 0.0 ? 0.0 : num_v / den;
}

std::string layers_json(const Layers& L, double overhead_frac) {
  const double attributed =
      seconds(L.bind_ns + L.stream_wall_ns + L.merge_ns + L.deferred_ns +
              L.begin_tick_ns + L.end_tick_ns + L.close_epoch_ns +
              L.balancer_ns + L.metrics_ns);
  const std::vector<std::pair<std::string, std::string>> metrics = {
      {"sim.traced_wall_s", num(seconds(L.wall_ns))},
      {"sim.bind_s", num(seconds(L.bind_ns))},
      {"sim.stream_wall_s", num(seconds(L.stream_wall_ns))},
      {"sim.stream_work_s", num(seconds(L.stream_work_ns))},
      {"sim.stream_critical_s", num(seconds(L.stream_critical_ns))},
      {"sim.stream_critical_frac",
       num(ratio(static_cast<double>(L.stream_critical_ns),
                 static_cast<double>(L.stream_work_ns)))},
      {"sim.pool_idle_frac",
       num(1.0 - ratio(static_cast<double>(L.stream_work_ns),
                       L.stream_capacity_ns))},
      {"mds.merge_lanes_s", num(seconds(L.merge_ns))},
      {"workloads.deferred_s", num(seconds(L.deferred_ns))},
      {"mds.begin_tick_s", num(seconds(L.begin_tick_ns))},
      {"mds.end_tick_s", num(seconds(L.end_tick_ns))},
      {"mds.close_epoch_s", num(seconds(L.close_epoch_ns))},
      {"balancer.on_epoch_s", num(seconds(L.balancer_ns))},
      {"sim.metrics_s", num(seconds(L.metrics_ns))},
      {"sim.other_s", num(seconds(L.wall_ns) - attributed)},
      {"trace_overhead_frac", num(overhead_frac)},
      {"sim.ticks", num(L.ticks)},
      {"sim.epochs", num(L.epochs)},
      {"sim.pool_workers", num(L.pool_workers)},
      {"sim.deferral_rate",
       num(ratio(static_cast<double>(L.deferred),
                 static_cast<double>(L.eligible)))},
      {"sim.paused_clients", num(L.paused)},
      {"sim.largest_rank_share",
       num(ratio(static_cast<double>(L.largest_bucket),
                 static_cast<double>(L.bound)))},
      {"mds.ops_served", num(L.ops_served)},
      {"mds.forward_ratio",
       num(ratio(static_cast<double>(L.forwards),
                 static_cast<double>(L.ops_served)))},
      {"mds.migrations_submitted", num(L.mig_submitted)},
      {"mds.migrations_completed", num(L.mig_completed)},
      {"mds.migrations_aborted", num(L.mig_aborted)},
      {"mds.migrated_inodes", num(L.migrated_inodes)},
      {"mds.valid_migration_frac",
       num(ratio(static_cast<double>(L.mig_valid),
                 static_cast<double>(L.mig_submitted)))},
      {"mds.active_dirs_mean",
       num(ratio(static_cast<double>(L.active_dirs_sum),
                 static_cast<double>(L.epochs)))},
      {"fs.dirs", num(L.dirs)},
      {"journal.entries_appended", num(L.journal_entries)},
      {"journal.bytes_written", num(L.journal_bytes)},
      {"workloads.stall_frac",
       num(ratio(L.stall_sum, static_cast<double>(L.clients)))},
      {"workloads.stream_ns_per_op",
       num(ratio(static_cast<double>(L.stream_work_ns),
                 static_cast<double>(L.stream_ops)))},
  };
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ",";
    out += quote(metrics[i].first) + ":" + metrics[i].second;
  }
  return out + "}";
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "name,start_ns,end_ns,parent,rank\n";
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    f << s.name << ',' << (s.start_ns - base) << ',' << (s.end_ns - base)
      << ',' << s.parent << ',' << s.rank << '\n';
  }
}

template <typename T>
std::size_t median_index(const std::vector<T>& v) {
  std::vector<std::size_t> idx(v.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(),
            [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
  return idx[idx.size() / 2];
}

// -- Modes -------------------------------------------------------------------

constexpr int kSetupReps = 5;

/// Measuring rounds continue until `budget_s` has elapsed, but not into a
/// round that would likely end past 115% of it.  `*last` holds the end of
/// the previous round.
bool another_round(std::int64_t t0, std::int64_t* last, double budget_s) {
  const std::int64_t now = now_ns();
  const double round_s = seconds(now - *last);
  *last = now;
  const double elapsed = seconds(now - t0);
  return elapsed < budget_s && elapsed + round_s <= budget_s * 1.15;
}

int mode_timed(const Workload& w, double budget_s) {
  Checks checks;
  std::vector<std::vector<PlainRun>> passes;
  const std::int64_t t0 = now_ns();
  std::int64_t last = t0;
  do {
    passes.push_back(run_plain_pass(w, /*side_by_side=*/true));
  } while (another_round(t0, &last, budget_s));

  // Per-scenario times of every pass; the caller sums per-scenario medians.
  std::string pass_json = "[";
  for (std::size_t p = 0; p < passes.size(); ++p) {
    std::string setup = "[";
    std::string wall = "[";
    for (std::size_t i = 0; i < passes[p].size(); ++i) {
      const PlainRun& r = passes[p][i];
      const std::string name = scenario_name(w.scenarios[i]);
      checks.expect(r.outcome.client_ops == r.outcome.served,
                    "conservation " + name + " pass " + std::to_string(p));
      if (p > 0) {
        checks.expect(same_outcome(r.outcome, passes[0][i].outcome),
                      "repeat-identical " + name + " pass " +
                          std::to_string(p));
      }
      if (i != 0) {
        setup += ",";
        wall += ",";
      }
      setup += num(seconds(r.setup_ns));
      wall += num(seconds(r.wall_ns));
    }
    if (p != 0) pass_json += ",";
    pass_json += "{\"setup_s\":" + setup + "],\"wall_s\":" + wall + "]}";
  }
  pass_json += "]";
  // Set-up is a small share of a pass, so time it a few more times on its
  // own (build, then discard) for a steadier median.
  std::string setup_json = "[";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_json += rep != 0 ? ",[" : "[";
    for (std::size_t i = 0; i < w.scenarios.size(); ++i) {
      const std::int64_t s0 = now_ns();
      const std::unique_ptr<sim::Simulation> sim =
          sim::make_scenario(w.scenarios[i]);
      if (i != 0) setup_json += ",";
      setup_json += num(seconds(now_ns() - s0));
    }
    setup_json += "]";
  }
  setup_json += "]";
  std::printf(
      "{\"mode\":\"timed\",\"workload\":%s,\"host\":%s,\"scenarios\":%s,"
      "\"passes\":%s,\"setup_only_s\":%s,\"peak_rss_mb\":%s,"
      "\"checks\":%s}\n",
      quote(w.name).c_str(), host_json().c_str(),
      scenarios_json(w, passes[0]).c_str(), pass_json.c_str(),
      setup_json.c_str(), num(peak_rss_mb()).c_str(),
      checks.json().c_str());
  return 0;
}

int mode_traced(const Workload& w, double budget_s,
                const std::string& spans_path) {
  Checks checks;
  std::vector<std::vector<PlainRun>> plain;
  std::vector<TracedPass> traced;
  const std::int64_t t0 = now_ns();
  std::int64_t last = t0;
  do {
    // Serial, like the traced pass, so the overhead compares like runs.
    plain.push_back(run_plain_pass(w, /*side_by_side=*/false));
    traced.push_back(run_traced_pass(w, !spans_path.empty()));
  } while (another_round(t0, &last, budget_s));

  std::vector<double> overhead;
  std::vector<std::int64_t> traced_wall;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    std::int64_t wall = 0;
    for (std::size_t i = 0; i < plain[p].size(); ++i) {
      const std::string name = scenario_name(w.scenarios[i]);
      const Outcome& a = plain[p][i].outcome;
      const Outcome& b = traced[p].outcomes[i];
      wall += plain[p][i].wall_ns;
      checks.expect(same_outcome(a, b),
                    "traced-matches-untraced " + name + " pass " +
                        std::to_string(p));
      checks.expect(a.client_ops == a.served && b.client_ops == b.served,
                    "conservation " + name + " pass " + std::to_string(p));
    }
    overhead.push_back(static_cast<double>(traced[p].layers.wall_ns) /
                           static_cast<double>(wall) -
                       1.0);
    traced_wall.push_back(traced[p].layers.wall_ns);
  }
  const double overhead_median = overhead[median_index(overhead)];
  const std::size_t med = median_index(traced_wall);
  if (!spans_path.empty()) write_spans(spans_path, traced[med].spans);

  std::printf(
      "{\"mode\":\"traced\",\"workload\":%s,\"host\":%s,\"scenarios\":%s,"
      "\"traced_passes\":%zu,\"layers\":%s,\"checks\":%s}\n",
      quote(w.name).c_str(), host_json().c_str(),
      scenarios_json(w, plain[0]).c_str(), traced.size(),
      layers_json(traced[med].layers, overhead_median).c_str(),
      checks.json().c_str());
  return 0;
}

/// Checks of one scenario: its untraced run, the traced mirror and, for a
/// sharded scenario, an S=1 rerun.
struct CheckJob {
  sim::ScenarioConfig cfg;
  PlainRun plain;
  Checks checks;
};

void run_check_job(CheckJob* job) {
  const sim::ScenarioConfig& cfg = job->cfg;
  const std::string name =
      scenario_name(cfg) + " seed " + std::to_string(cfg.seed);
  job->plain = run_plain(cfg);
  const Outcome& a = job->plain.outcome;
  job->checks.expect(a.client_ops == a.served, "conservation " + name);

  Layers layers;
  const Outcome b = run_mirror(cfg, &layers, nullptr);
  job->checks.expect(same_outcome(a, b),
                     "traced-matches-untraced " + name);
  job->checks.expect(layers.invariant_violations == 0,
                     "traced-invariants " + name);

  if (cfg.sharded_ticks > 1) {
    sim::ScenarioConfig serial = cfg;
    serial.sharded_ticks = 1;
    const Outcome c = run_plain(serial).outcome;
    job->checks.expect(same_outcome(a, c),
                       "S1-matches-S" + std::to_string(cfg.sharded_ticks) +
                           " " + name);
  }
}

/// Untimed, so the (seed, scenario) jobs share the host's threads.
/// Concurrent jobs compete for the worker budget; a starved grant must not
/// change results, which the digest comparisons also cover.
int mode_check(const Workload& w, const Workload& heldout) {
  std::vector<CheckJob> jobs;
  for (const Workload* wl : {&w, &heldout}) {
    for (const sim::ScenarioConfig& cfg : wl->scenarios) {
      jobs.push_back(CheckJob{cfg, {}, {}});
    }
  }
  parallel_for(jobs.size(), [&](std::size_t i) { run_check_job(&jobs[i]); });

  Checks checks;
  std::string names[2] = {"[", "["};
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    checks.append(jobs[i].checks);
    const bool primary = i < w.scenarios.size();
    std::string& out = names[primary ? 0 : 1];
    if (out.size() > 1) out += ",";
    out += outcome_json(scenario_name(jobs[i].cfg), jobs[i].plain.outcome,
                        jobs[i].plain.granted);
  }
  std::printf(
      "{\"mode\":\"check\",\"workload\":%s,\"host\":%s,\"scenarios\":%s],"
      "\"heldout_scenarios\":%s],\"checks\":%s}\n",
      quote(w.name).c_str(), host_json().c_str(), names[0].c_str(),
      names[1].c_str(), checks.json().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lunule_perfbench --workload W --seed N "
               "--mode timed|traced|check [--seconds T] [--spans FILE] "
               "[--heldout-seed M]\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  std::string workload;
  std::string mode;
  std::string spans_path;
  std::uint64_t seed = 42;
  std::uint64_t heldout_seed = 0;
  double budget_s = 10.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--mode") {
      mode = val;
    } else if (arg == "--seed") {
      seed = std::stoull(val);
    } else if (arg == "--heldout-seed") {
      heldout_seed = std::stoull(val);
    } else if (arg == "--seconds") {
      budget_s = std::stod(val);
    } else if (arg == "--spans") {
      spans_path = val;
    } else {
      return usage();
    }
  }
  Workload w;
  if (!make_workload(workload, seed, &w)) {
    std::fprintf(stderr, "unknown workload: %s\n", workload.c_str());
    return 2;
  }
  for (const sim::ScenarioConfig& cfg : w.scenarios) {
    if (!mirror_supports(cfg)) {
      std::fprintf(stderr, "traced mirror does not cover %s\n",
                   scenario_name(cfg).c_str());
      return 2;
    }
  }
  if (mode == "timed") return mode_timed(w, budget_s);
  if (mode == "traced") return mode_traced(w, budget_s, spans_path);
  if (mode == "check") {
    Workload heldout;
    make_workload(workload, heldout_seed, &heldout);
    return mode_check(w, heldout);
  }
  return usage();
}

}  // namespace
}  // namespace lunule::perfbench

int main(int argc, char** argv) {
  return lunule::perfbench::main_impl(argc, argv);
}
