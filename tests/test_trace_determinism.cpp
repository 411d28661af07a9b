// The flight recorder must never break the repo's core determinism
// property: two runs of the same seeded scenario produce byte-identical
// trace dumps.
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sim/scenario.h"

namespace lunule::sim {
namespace {

ScenarioConfig small_config(BalancerKind balancer, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.workload = WorkloadKind::kZipf;
  cfg.balancer = balancer;
  cfg.n_clients = 20;
  cfg.scale = 0.05;
  cfg.max_ticks = 200;
  cfg.seed = seed;
  cfg.capture_trace = true;
  return cfg;
}

TEST(TraceDeterminism, LunuleTraceIsByteIdenticalAcrossRuns) {
  const ScenarioConfig cfg = small_config(BalancerKind::kLunule, 42);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  // The dump actually contains flight-recorder content, not just shell.
  EXPECT_NE(a.trace_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"events\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("cluster.ops_served"), std::string::npos);
}

TEST(TraceDeterminism, VanillaTraceIsByteIdenticalAcrossRuns) {
  const ScenarioConfig cfg = small_config(BalancerKind::kVanilla, 42);
  const ScenarioResult a = run_scenario(cfg);
  const ScenarioResult b = run_scenario(cfg);
  ASSERT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(TraceDeterminism, DifferentSeedsProduceDifferentTraces) {
  const ScenarioResult a = run_scenario(small_config(BalancerKind::kLunule, 1));
  const ScenarioResult b = run_scenario(small_config(BalancerKind::kLunule, 2));
  EXPECT_NE(a.trace_json, b.trace_json);
}

// FNV-1a 64-bit (the same digest lunule_proptest prints on oracle
// failures, copied here so a tier1 test needs no extra library).
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// Pinned trace digest: disabled tiers must be dark silicon.  The constant
// below is the trace digest of this exact scenario on the tick engine the
// default now runs (S = 1), taken from the build just before the serial
// rotation loop was deleted with `sharded_ticks = 1` set on the scenario —
// so it also proves that deleting the loop left S = 1 untouched.  The
// constant it replaced was pinned before the proxy tier existed, on the old
// default loop.  A run with the proxy off and the journal off with
// async_mode off (the defaults) must still hash to it, and neither tier may
// count anything.  dep_seq stamping runs in every journal mode but lives
// outside the trace, so it must not move this value either.  If an
// intentional trace-format change moves this value, re-pin it together
// with the change that moved it — never because tier code started leaking
// into disabled runs.
TEST(TraceDeterminism, ProxyDisabledTraceMatchesPinnedPreProxyDigest) {
  ScenarioConfig cfg = small_config(BalancerKind::kLunule, 42);
  ASSERT_FALSE(cfg.proxy.enabled);
  ASSERT_FALSE(cfg.journal.enabled);
  ASSERT_FALSE(cfg.journal.async_mode);
  const ScenarioResult r = run_scenario(cfg);
  ASSERT_FALSE(r.trace_json.empty());
  EXPECT_EQ(fnv1a64(r.trace_json), 0xcd2b36bbeccaef0bull);
  EXPECT_EQ(r.proxy_reads_absorbed, 0u);
  EXPECT_EQ(r.proxy_lease_grants, 0u);
  EXPECT_EQ(r.proxy_promotions, 0u);
  EXPECT_EQ(r.journal_async_acked, 0u);
  EXPECT_EQ(r.journal_async_background_charges, 0u);
  EXPECT_EQ(r.journal_async_throttle_ticks, 0u);
  EXPECT_EQ(r.journal_acked_lost_entries, 0u);
  EXPECT_EQ(r.journal_dependency_violations, 0u);
}

}  // namespace
}  // namespace lunule::sim
