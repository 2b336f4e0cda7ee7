// The invariant checker over the counter vocabulary both executors share
// (core/counters.hpp). test_sim_properties runs it on the simulator's DWS
// programs, test_corun on a real two-Scheduler DWS co-run.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "core/counters.hpp"

namespace dws {

/// What a quiescent DWS program's counters satisfy.
inline void expect_counter_invariants(const WorkerCounters& w,
                                      const CoordinatorCounters& c) {
  EXPECT_EQ(w.steal_attempts, w.steals + w.failed_steals);
  std::uint64_t by_tier = 0;
  for (std::uint64_t n : w.steals_by_tier) by_tier += n;
  EXPECT_EQ(by_tier, w.steals);
  EXPECT_LE(w.wakes, w.sleeps);
  // Every coordinator wake lands on a core the tick claimed or reclaimed.
  EXPECT_LE(c.coordinator_wakes, c.cores_claimed + c.cores_reclaimed);
}

}  // namespace dws
