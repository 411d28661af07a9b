#include "obs/invariant_checker.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>

#include "balancer/candidates.h"
#include "obs/trace_recorder.h"

namespace lunule::obs {

namespace {

/// Collects violations with printf-free formatting.
class Violations {
 public:
  template <typename... Parts>
  void add(Parts&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    items_.push_back(os.str());
  }

  [[nodiscard]] std::vector<std::string> take() { return std::move(items_); }

 private:
  std::vector<std::string> items_;
};

void check_counter(Violations& v, const CounterRegistry& counters,
                   std::string_view name, std::uint64_t expected) {
  const std::uint64_t got = counters.value(name);
  if (got != expected) {
    v.add("counter ", name, " = ", got, " disagrees with engine total ",
          expected);
  }
}

/// The access recorder's retention criterion: a fragment (or a unit built
/// from fragments) still carries signal while any of heat, the visits
/// window, the first-visits window or the sibling-credit window is
/// non-zero.
bool live(const fs::FragStats& f) {
  return f.heat > 0.0 || f.visits_window.window_sum() > 0 ||
         f.first_visits_window.window_sum() > 0 ||
         f.sibling_credit_window.window_sum() > 0.0;
}

bool live(const balancer::Candidate& c) {
  return c.heat > 0.0 || c.visits_w > 0 || c.first_visits_w > 0 ||
         c.sibling_credit_w > 0.0;
}

/// The candidates of rank `m` that carry signal, in scan order.
std::vector<balancer::Candidate> with_signal(
    const std::vector<balancer::Candidate>& all, MdsId m) {
  std::vector<balancer::Candidate> out;
  std::copy_if(all.begin(), all.end(), std::back_inserter(out),
               [m](const balancer::Candidate& c) {
                 return c.auth == m && live(c);
               });
  return out;
}

}  // namespace

std::vector<std::string> check_hot_paths(mds::MdsCluster& cluster) {
  Violations v;
  fs::NamespaceTree& tree = cluster.tree();
  const mds::AccessRecorder& recorder = cluster.recorder();
  const EpochId clock = tree.stats_clock();
  const double decay = recorder.params().heat_decay;

  // Authority cache vs the uncached pin walk; statistics clock; expiry.
  // The expiry check rolls copies, so this pass leaves the tree untouched.
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    const MdsId cached = tree.auth_of(d);
    const MdsId oracle = tree.resolve_auth_uncached(d);
    if (cached != oracle) {
      v.add("dir ", d, " cached authority ", cached,
            " != recomputed authority ", oracle);
    }
    const bool active = recorder.is_active(d);
    for (std::size_t f = 0; f < tree.frags(d).size(); ++f) {
      const fs::FragStats& frag = tree.frags(d)[f];
      if (frag.stats_epoch > clock) {
        v.add("dirfrag ", d, "/", f, " stats epoch ", frag.stats_epoch,
              " is ahead of the statistics clock ", clock);
      }
      if (active) continue;
      if (frag.visits_epoch != 0 || frag.file_visits_epoch != 0 ||
          frag.first_visits_epoch != 0 || frag.recurrent_epoch != 0 ||
          frag.creates_epoch != 0 || frag.sibling_credit_epoch != 0.0) {
        v.add("dirfrag ", d, "/", f,
              " has open accumulators but its directory is not active");
      }
      fs::FragStats copy = frag;
      copy.advance_to(clock, decay);
      if (live(copy)) {
        v.add("dirfrag ", d, "/", f,
              " still carries live statistics but its directory was "
              "expired from the active set");
      }
    }
  }

  // Per rank, the active-set scan finds exactly the candidates with signal
  // that the whole-namespace scan finds, in the same order.  The scans roll
  // lagging fragments forward in place, as every reader does; they are
  // restored afterwards, so the audit leaves the statistics exactly as it
  // found them, even for code that reads windows without rolling them.
  // The buffer is reused across audits: a fresh namespace-sized one per
  // epoch costs more in page faults than the copy itself.
  static thread_local std::vector<fs::FragStats> saved;
  saved.clear();
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    saved.insert(saved.end(), tree.frags(d).begin(), tree.frags(d).end());
  }
  // One scan each way serves every rank: per-rank collection is the same
  // scan filtered by authority.
  const std::vector<balancer::Candidate> all_full =
      balancer::collect_all_candidates(tree);
  const std::vector<balancer::Candidate> all_fast =
      balancer::collect_all_candidates(tree, cluster.candidate_dirs());
  for (std::size_t m = 0; m < cluster.size(); ++m) {
    const auto rank = static_cast<MdsId>(m);
    const std::vector<balancer::Candidate> full = with_signal(all_full, rank);
    const std::vector<balancer::Candidate> fast = with_signal(all_fast, rank);
    if (full == fast) continue;
    const auto k = static_cast<std::size_t>(
        std::mismatch(full.begin(), full.end(), fast.begin(), fast.end())
            .first -
        full.begin());
    v.add("mds.", m, " active-set scan yields ", fast.size(),
          " candidates with signal, whole-namespace scan ", full.size(),
          "; first divergence at #", k, ", dir ",
          (k < full.size() ? full[k] : fast[k]).ref.dir);
  }
  auto next = saved.begin();
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    for (fs::FragStats& frag : tree.frags(d)) frag = *next++;
  }

  // The migration engine's frozen index against a fresh scan of its tasks.
  const mds::MigrationEngine& engine = cluster.migration();
  std::vector<fs::SubtreeRef> frozen;
  for (const mds::ExportTask& t : engine.tasks()) {
    if (t.frozen(engine.params().freeze_fraction)) frozen.push_back(t.subtree);
  }
  if (engine.frozen_subtrees() != frozen) {
    v.add("migration frozen index (", engine.frozen_subtrees().size(),
          " units) differs from a scan of the tasks (", frozen.size(),
          " frozen)");
  }
  return v.take();
}

std::vector<std::string> InvariantChecker::check_epoch(
    mds::MdsCluster& cluster, std::span<const Load> loads,
    std::optional<std::uint64_t> client_ops_completed) {
  Violations v;
  const std::size_t n = cluster.size();
  const double epoch_seconds = cluster.epoch_seconds();

  // 1. Load conservation: sampled loads are the servers' last-epoch loads,
  //    and their sum accounts exactly for the operations served since the
  //    previous check (Σ per-MDS load == aggregate).
  if (loads.size() != n) {
    v.add("load vector size ", loads.size(), " != cluster size ", n);
  } else {
    double sum_loads = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const Load server_load =
          cluster.server(static_cast<MdsId>(i)).current_load();
      if (loads[i] != server_load) {
        v.add("mds.", i, " sampled load ", loads[i],
              " != server last-epoch load ", server_load);
      }
      if (loads[i] < 0.0) v.add("mds.", i, " negative load ", loads[i]);
      sum_loads += loads[i];
    }
    const std::uint64_t served_total = cluster.total_served();
    const auto served_delta =
        static_cast<double>(served_total - last_served_total_);
    if (std::abs(sum_loads * epoch_seconds - served_delta) > 1e-6) {
      v.add("aggregate load ", sum_loads, " IOPS x ", epoch_seconds,
            " s != ", served_delta, " ops served this epoch");
    }
    last_served_total_ = served_total;
  }

  // 2. The flight recorder's monotonic counters agree with the engines.
  const CounterRegistry& counters = cluster.trace().counters();
  check_counter(v, counters, "cluster.ops_served", cluster.total_served());
  const mds::MigrationEngine& migration = cluster.migration();
  check_counter(v, counters, "migration.submitted",
                migration.migrations_submitted());
  check_counter(v, counters, "migration.completed",
                migration.migrations_completed());
  check_counter(v, counters, "migration.aborted",
                migration.migrations_aborted());
  // The headline Figure 4 metric: migrated inodes must equal the sum the
  // per-commit instrumentation accumulated.
  check_counter(v, counters, "migration.migrated_inodes",
                migration.total_migrated_inodes());

  // 3. Subtree authority is a partition of the namespace: every unit
  //    resolves to a valid rank and every inode is billed exactly once.
  const fs::NamespaceTree& tree = cluster.tree();
  std::uint64_t billed_inodes = 0;
  for (DirId d = 0; d < tree.dir_count(); ++d) {
    const fs::Directory& dir = tree.dir(d);
    const MdsId dir_auth = tree.auth_of(d);
    if (dir_auth < 0 || static_cast<std::size_t>(dir_auth) >= n) {
      v.add("dir ", d, " resolves to invalid authority ", dir_auth);
      continue;
    }
    // Fail-over completeness: nothing may still resolve to a crashed rank
    // once the epoch closes (set_down reassigns synchronously).
    if (!cluster.is_up(dir_auth)) {
      v.add("dir ", d, " resolves to down authority ", dir_auth);
    }
    ++billed_inodes;  // the directory inode itself
    std::uint64_t frag_files = 0;
    for (std::size_t f = 0; f < tree.frags(d).size(); ++f) {
      const fs::FragStats& frag = tree.frags(d)[f];
      const MdsId a = frag.auth_pin != kNoMds ? frag.auth_pin : dir_auth;
      if (a < 0 || static_cast<std::size_t>(a) >= n) {
        v.add("dirfrag ", d, "/", f, " resolves to invalid authority ", a);
      } else if (!cluster.is_up(a)) {
        v.add("dirfrag ", d, "/", f, " resolves to down authority ", a);
      }
      frag_files += frag.file_count;
    }
    if (frag_files != dir.file_count()) {
      v.add("dir ", d, " frag file counts sum to ", frag_files,
            " but the directory holds ", dir.file_count());
    }
    billed_inodes += frag_files;
  }
  if (billed_inodes != tree.total_inodes()) {
    v.add("authority partition bills ", billed_inodes,
          " inodes but the namespace holds ", tree.total_inodes());
  }

  // 4. Migration-engine task sanity.
  const auto max_inflight =
      static_cast<std::size_t>(migration.params().max_inflight_per_exporter);
  std::vector<std::size_t> active_per_exporter(n, 0);
  for (const mds::ExportTask& t : migration.tasks()) {
    if (t.from == t.to) v.add("migration task exports to itself (", t.from, ")");
    if (t.from < 0 || static_cast<std::size_t>(t.from) >= n ||
        t.to < 0 || static_cast<std::size_t>(t.to) >= n) {
      v.add("migration task endpoints out of range: ", t.from, " -> ", t.to);
      continue;
    }
    if (t.inodes == 0) v.add("migration task with zero inodes queued");
    // Crash handling drops every task touching a downed rank; one
    // surviving here means abort_involving missed it.
    if (!cluster.is_up(t.from) || !cluster.is_up(t.to)) {
      v.add("migration task with down endpoint: ", t.from, " -> ", t.to);
    }
    if (t.transferred < 0.0 ||
        t.transferred > static_cast<double>(t.inodes)) {
      v.add("migration task progress ", t.transferred, " outside [0, ",
            t.inodes, "]");
    }
    if (t.active) ++active_per_exporter[static_cast<std::size_t>(t.from)];
  }
  for (std::size_t m = 0; m < n; ++m) {
    if (active_per_exporter[m] > max_inflight) {
      v.add("mds.", m, " has ", active_per_exporter[m],
            " active exports, limit ", max_inflight);
    }
  }

  // 5. Journal coherence (only when the cluster journals).  The epoch just
  //    closed appended one ESubtreeMap per alive rank, so the newest
  //    retained checkpoint must describe exactly what the rank owns now —
  //    a drifting checkpoint means a journal hook was missed and a replay
  //    from it would reconstruct the wrong authority map.
  if (cluster.journaling()) {
    mds::MdsCluster::JournalTotals totals;
    for (std::size_t m = 0; m < n; ++m) {
      const journal::MdsJournal& j = cluster.journal(static_cast<MdsId>(m));
      totals.appends += j.appends();
      totals.bytes_written += j.bytes_written();
      totals.flushes += j.flushes();
      totals.segments_trimmed += j.segments_trimmed();
      if (j.durable_seq() > j.seq()) {
        v.add("mds.", m, " journal durable seq ", j.durable_seq(),
              " ahead of head seq ", j.seq());
      }
      std::uint64_t retained = 0;
      for (const journal::JournalSegment& seg : j.segments()) {
        retained += seg.entries.size();
        if (seg.entries.size() > j.params().segment_entries) {
          v.add("mds.", m, " journal segment holds ", seg.entries.size(),
                " entries, cap ", j.params().segment_entries);
        }
      }
      if (retained != j.entries_retained()) {
        v.add("mds.", m, " journal retains ", retained,
              " entries but reports ", j.entries_retained());
      }
      if (!cluster.is_up(static_cast<MdsId>(m))) continue;
      // Recompute the rank's live authority set and compare it against the
      // newest retained checkpoint.
      std::vector<fs::SubtreeRef> owned;
      for (DirId d = 0; d < tree.dir_count(); ++d) {
        if (tree.explicit_auth(d) == static_cast<MdsId>(m)) {
          owned.push_back(fs::SubtreeRef{.dir = d});
        }
        for (FragId f = 0; f < static_cast<FragId>(tree.frag_count(d)); ++f) {
          if (tree.frag(d, f).auth_pin == static_cast<MdsId>(m)) {
            owned.push_back(fs::SubtreeRef{.dir = d, .frag = f});
          }
        }
      }
      const journal::JournalEntry* newest_map = nullptr;
      for (const journal::JournalSegment& seg : j.segments()) {
        for (const journal::JournalEntry& e : seg.entries) {
          if (e.type == journal::EntryType::kSubtreeMap) newest_map = &e;
        }
      }
      if (newest_map == nullptr) {
        v.add("mds.", m, " (alive) has no retained ESubtreeMap checkpoint");
      } else if (newest_map->snapshot.owned != owned) {
        v.add("mds.", m, " newest ESubtreeMap describes ",
              newest_map->snapshot.owned.size(), " units but the rank owns ",
              owned.size());
      }
    }
    check_counter(v, counters, "journal.appends", totals.appends);
    check_counter(v, counters, "journal.bytes_written", totals.bytes_written);
    check_counter(v, counters, "journal.flushes", totals.flushes);
    check_counter(v, counters, "journal.segments_trimmed",
                  totals.segments_trimmed);
  }

  // 6. The incremental hot paths agree with their naive references.
  for (std::string& msg : check_hot_paths(cluster)) v.add(std::move(msg));

  // 7. Elasticity.  Membership changes must conserve the serving model:
  //    a rank outside the serving set (cold standby or retired) owns
  //    nothing (section 3 already flags any unit resolving to it), serves
  //    nothing, and carries zero load; a draining rank is still a serving
  //    member and must be up; and the autoscaler.* counters agree with the
  //    cluster's own membership-change totals.  Completed-op conservation
  //    across scale events is covered by section 1: total_served is
  //    monotone and every epoch's delta is billed to sampled loads, so a
  //    retirement that lost ops would trip the conservation check above.
  if (was_down_.size() != n) was_down_.assign(n, false);
  for (std::size_t m = 0; m < n; ++m) {
    const auto id = static_cast<MdsId>(m);
    if (!cluster.is_up(id)) {
      if (cluster.is_draining(id)) {
        v.add("mds.", m, " is down but still marked draining");
      }
      // A rank that crashed mid-epoch closed this epoch with whatever it
      // served before dying — only a rank down for the *whole* epoch
      // (cold standby, retired, or still mid-outage) must carry zero.
      if (was_down_[m] && cluster.server(id).current_load() != 0.0) {
        v.add("mds.", m, " was down for the whole epoch but closed it "
              "with load ", cluster.server(id).current_load());
      }
    }
    was_down_[m] = !cluster.is_up(id);
  }
  const mds::MdsCluster::ElasticityTotals& elastic = cluster.elasticity();
  if (elastic.activations != 0 || elastic.retirements != 0 ||
      elastic.drains_started != 0) {
    check_counter(v, counters, "autoscaler.scale_ups", elastic.activations);
    check_counter(v, counters, "autoscaler.scale_downs",
                  elastic.retirements);
    check_counter(v, counters, "autoscaler.drains", elastic.drains_started);
  }

  // 8. Completed ops, then proxy cache-tier coherence.  Every metadata op
  //    a client completed was either served by an MDS or absorbed by the
  //    proxy tier, and nothing else was (the proxy.reads_absorbed counter
  //    reads 0 without a tier).  No read may be served from a lease a
  //    completed invalidation should have revoked: every live lease must
  //    still match the directory state snapshotted at grant (authority,
  //    file count, fragmentation), its grantor must be up and not
  //    draining, its TTL must be bounded, and the proxy.* counters must
  //    agree with the tier's lifetime totals.  The tier owns that check —
  //    it knows its lease table — and it stays free when no tier is
  //    installed.
  if (client_ops_completed.has_value()) {
    const std::uint64_t absorbed = counters.value("proxy.reads_absorbed");
    if (*client_ops_completed != cluster.total_served() + absorbed) {
      v.add("clients completed ", *client_ops_completed,
            " metadata ops but the MDSs served ", cluster.total_served(),
            " and the proxy tier absorbed ", absorbed);
    }
  }
  if (const mds::CacheTier* tier = cluster.cache_tier()) {
    for (const std::string& msg : tier->check_coherence(cluster)) {
      v.add(msg);
    }
  }

  // 9. Async journal mode.  Acknowledging at apply instead of at flush is
  //    only sound while the acknowledged-but-volatile window stays bounded
  //    and dependencies never dangle: the un-flushed EUpdate backlog must
  //    respect max_unflushed_entries (try_create refuses new creates at
  //    the cap, so the mutation window — the documented crash-loss window —
  //    is exact; migration/checkpoint entries may legitimately push the
  //    *total* backlog past it), every retained entry depends only on a
  //    strictly earlier sequence, every *durable* entry depends on a
  //    durable one (group commit flushes contiguous prefixes, so a
  //    violation means the flush discipline broke), and the async_*
  //    counters agree with the journals' lifetime totals.
  if (cluster.journaling() && cluster.params().journal.async_mode) {
    mds::MdsCluster::JournalTotals async_totals;
    for (std::size_t m = 0; m < n; ++m) {
      const journal::MdsJournal& j = cluster.journal(static_cast<MdsId>(m));
      async_totals.async_acked += j.async_acked();
      async_totals.async_background_charges += j.background_charges();
      async_totals.async_throttle_ticks += j.throttle_ticks();
      std::uint64_t unflushed_updates = 0;
      for (const journal::JournalSegment& seg : j.segments()) {
        for (const journal::JournalEntry& e : seg.entries) {
          if (e.dep_seq != 0 && e.dep_seq >= e.seq) {
            v.add("mds.", m, " journal entry seq ", e.seq,
                  " depends on non-earlier seq ", e.dep_seq);
          }
          if (e.seq <= j.durable_seq() && e.dep_seq > j.durable_seq()) {
            v.add("mds.", m, " durable entry seq ", e.seq,
                  " depends on un-flushed seq ", e.dep_seq);
          }
          if (e.seq > j.durable_seq() &&
              e.type == journal::EntryType::kUpdate) {
            ++unflushed_updates;
          }
        }
      }
      if (unflushed_updates > j.params().max_unflushed_entries) {
        v.add("mds.", m, " async journal holds ", unflushed_updates,
              " un-flushed EUpdate entries, loss-window cap ",
              j.params().max_unflushed_entries);
      }
      if (j.async_acked() > j.appends()) {
        v.add("mds.", m, " acknowledged ", j.async_acked(),
              " async entries but appended only ", j.appends());
      }
    }
    check_counter(v, counters, "journal.async_acked",
                  async_totals.async_acked);
    check_counter(v, counters, "journal.async_background_charges",
                  async_totals.async_background_charges);
    check_counter(v, counters, "journal.async_throttle_ticks",
                  async_totals.async_throttle_ticks);
  }

  ++epochs_checked_;
  return v.take();
}

}  // namespace lunule::obs
