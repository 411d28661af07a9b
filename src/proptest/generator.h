// Random-but-valid ScenarioConfig generation for property-based testing.
//
// generate_config(seed, index) derives one scenario from a master seed and a
// case index, purely through common/rng.h — the same (seed, index) pair
// produces a byte-identical config (verified by a ctest), so any failure the
// fuzzer reports is reproducible from two integers even before the shrunk
// repro file is written.
//
// The sampled space covers the whole ScenarioConfig surface: workload x
// balancer x cluster shape x capacities x fault plans x journal / shard /
// replication knobs.  Sizes are deliberately small (a few clients, a couple
// hundred ticks, scale << 1): each oracle re-runs its scenario several times,
// and the point is scenario-space *coverage*, not scenario *size*.
#pragma once

#include <cstdint>

#include "sim/scenario.h"

namespace lunule::proptest {

/// One deterministic sample of the scenario space.  The returned config
/// always satisfies faults.validate(n_mds, max_ticks) and builds without
/// throwing; capture_trace is left off (oracles flip it when they need
/// trace equivalence).
[[nodiscard]] sim::ScenarioConfig generate_config(std::uint64_t seed,
                                                  std::uint64_t index);

}  // namespace lunule::proptest
