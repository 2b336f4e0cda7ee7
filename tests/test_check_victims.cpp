// Model checks for the victim sweep (core/victim_order.hpp).
//
// TieredVictimOrder's only nondeterminism is the start id each sweep
// draws. Driving its templated Rng through the checker's choose_value()
// enumerates *every* draw, so this scenario certifies — not samples — the
// locality contract both executors lean on: every failed sweep probes
// each victim exactly once, tiers near-to-far. Starvation-freedom
// follows, since a failed sweep has probed everyone.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "check/check.hpp"
#include "core/topology.hpp"
#include "core/victim_order.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;

Options exhaustive() {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  return o;
}

/// Rng whose draws are checker decisions: explore() branches on every
/// possible value, turning each sweep's start into a fork point.
struct ChooseRng {
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound <= 1) return 0;
    return static_cast<std::uint64_t>(
        check::current()->choose_value(static_cast<int>(bound)));
  }
};

TEST(VictimOrderCheck, EverySweepIsANearFirstPermutation) {
  // 6 cores, 2 sockets; thief = core 0. Victims 1..2 are NEAR, 3..5 FAR.
  // All 6 x 6 start draws of two consecutive sweeps are explored.
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    sim.spawn([] {
      const Topology topo = Topology::synthetic(6, 2);
      TieredVictimOrder order(topo, /*self=*/0, 6);
      ChooseRng rng;
      for (int sweep = 0; sweep < 2; ++sweep) {
        std::set<unsigned> seen;
        std::size_t probes = 0;
        int prev_tier = -1;
        const auto hit = order.sweep(rng, [&](VictimPick pick) {
          check::expect(pick.victim != 0 && pick.victim < 6,
                        "victim out of range");
          check::expect(pick.tier == topo.distance(0, pick.victim),
                        "reported tier disagrees with the topology");
          check::expect(static_cast<int>(pick.tier) >= prev_tier,
                        "sweep visited a nearer tier after a farther one");
          prev_tier = static_cast<int>(pick.tier);
          seen.insert(pick.victim);
          ++probes;
          return false;
        });
        check::expect(!hit.has_value(), "a sweep of failing probes hit");
        check::expect(probes == order.size() && seen.size() == probes,
                      "sweep skipped or repeated a victim");
      }
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

}  // namespace
}  // namespace dws
