// The NUMA machine model and the victim sweep built on it: metric
// properties of Topology::distance (symmetry, triangle inequality,
// identity), the simulator's socket split (clamped, ceil division), and
// the sweeps of TieredVictimOrder under both victim policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/config.hpp"
#include "core/topology.hpp"
#include "core/victim_order.hpp"
#include "sim/params.hpp"
#include "util/rng.hpp"

namespace dws {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Topology, SyntheticTwoSocketMatchesThePaperTestbed) {
  // 2x Xeon E5620 = 16 logical cores in 2 sockets, split contiguously.
  const Topology t = Topology::synthetic(16, 2);
  EXPECT_EQ(t.num_cores(), 16u);
  EXPECT_EQ(t.num_sockets(), 2u);
  for (CoreId c = 0; c < 16; ++c) {
    EXPECT_EQ(t.socket_of(c), c < 8 ? 0u : 1u) << "core " << c;
  }
  EXPECT_EQ(t.distance(0, 7), DistanceTier::kNear);    // same socket
  EXPECT_EQ(t.distance(0, 8), DistanceTier::kFar);     // adjacent socket
  EXPECT_EQ(t.distance(15, 8), DistanceTier::kNear);
  EXPECT_FALSE(t.flat());
}

TEST(Topology, SyntheticMatchesSimParamsSocketSplit) {
  // The simulator's machine model (SimParams::topology) splits the cores
  // contiguously by ceil division, with the socket count clamped to
  // [1, k]; the cache model and the victim sweep both read this split.
  for (unsigned k : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u}) {
    for (unsigned s : {0u, 1u, 2u, 3u, 4u, 40u}) {
      sim::SimParams params;
      params.num_cores = k;
      params.num_sockets = s;
      const Topology t = params.topology();
      ASSERT_EQ(t.num_cores(), k);
      const unsigned sockets = std::clamp(s, 1u, k);
      EXPECT_EQ(t.num_sockets(), sockets) << "k=" << k << " s=" << s;
      const unsigned per = (k + sockets - 1) / sockets;
      for (CoreId c = 0; c < k; ++c) {
        EXPECT_EQ(t.socket_of(c), c / per)
            << "k=" << k << " s=" << s << " core=" << c;
      }
    }
  }
}

TEST(Topology, SmtSiblingsAreVeryNear) {
  // 8 logical cores, 2 sockets, 2-way SMT: {0,1} share a physical core.
  const Topology t = Topology::synthetic(8, 2, 2);
  EXPECT_EQ(t.distance(0, 1), DistanceTier::kVeryNear);
  EXPECT_EQ(t.distance(0, 2), DistanceTier::kNear);  // same socket, other core
  EXPECT_EQ(t.distance(0, 3), DistanceTier::kNear);
  EXPECT_EQ(t.distance(0, 4), DistanceTier::kFar);   // other socket
  EXPECT_EQ(t.group_of(0), t.group_of(1));
  EXPECT_NE(t.group_of(1), t.group_of(2));
}

TEST(Topology, LinearSocketChainSeparatesFarFromVeryFar) {
  // 4 sockets in a chain: 1 hop = FAR, 2+ hops = VERYFAR.
  const Topology t = Topology::synthetic(16, 4);
  EXPECT_EQ(t.distance(0, 4), DistanceTier::kFar);      // socket 0 -> 1
  EXPECT_EQ(t.distance(0, 8), DistanceTier::kVeryFar);  // socket 0 -> 2
  EXPECT_EQ(t.distance(0, 12), DistanceTier::kVeryFar); // socket 0 -> 3
  EXPECT_EQ(t.distance(4, 8), DistanceTier::kFar);      // socket 1 -> 2
}

TEST(Topology, DistanceIsAMetricOnTiers) {
  // Symmetry, identity and the triangle inequality over the numeric tier
  // values, for every shape the other layers construct. The triangle
  // property is what makes "exhaust near tiers first" meaningful: a
  // detour through a third core can never be shorter than the direct
  // tier.
  const Topology shapes[] = {
      Topology::uniform(1),         Topology::uniform(8),
      Topology::synthetic(16, 2),   Topology::synthetic(16, 4),
      Topology::synthetic(12, 3, 2), Topology::synthetic(8, 2, 2),
      Topology::synthetic(7, 3),
  };
  for (const Topology& t : shapes) {
    const unsigned n = t.num_cores();
    for (CoreId a = 0; a < n; ++a) {
      EXPECT_EQ(t.distance(a, a), DistanceTier::kVeryNear);
      for (CoreId b = 0; b < n; ++b) {
        EXPECT_EQ(t.distance(a, b), t.distance(b, a))
            << "asymmetric at (" << a << "," << b << ")";
        for (CoreId c = 0; c < n; ++c) {
          EXPECT_LE(static_cast<int>(t.distance(a, c)),
                    static_cast<int>(t.distance(a, b)) +
                        static_cast<int>(t.distance(b, c)))
              << "triangle violated at (" << a << "," << b << "," << c << ")";
        }
      }
    }
  }
}

TEST(Topology, UniformIsFlat) {
  EXPECT_TRUE(Topology::uniform(8).flat());
  EXPECT_TRUE(Topology::uniform(1).flat());
  EXPECT_FALSE(Topology::synthetic(8, 2).flat());
  EXPECT_FALSE(Topology::synthetic(8, 1, 2).flat());  // SMT pairs break it
}

TEST(Topology, SocketAndSmtCountsAreClamped) {
  const Topology t = Topology::synthetic(4, 99, 99);
  EXPECT_EQ(t.num_cores(), 4u);
  EXPECT_LE(t.num_sockets(), 4u);
  const Topology z = Topology::synthetic(4, 0, 0);  // 0 means "at least 1"
  EXPECT_EQ(z.num_sockets(), 1u);
}

TEST(Topology, DetectAlwaysYieldsAValidModel) {
  // Whatever sysfs says (or doesn't — containers), the result must be a
  // well-formed, symmetric model of the requested width.
  const Topology t = Topology::detect(4);
  ASSERT_EQ(t.num_cores(), 4u);
  EXPECT_GE(t.num_sockets(), 1u);
  for (CoreId a = 0; a < 4; ++a) {
    EXPECT_LT(t.socket_of(a), t.num_sockets());
    for (CoreId b = 0; b < 4; ++b) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
    }
  }
}

TEST(Topology, MakeTopologyHonoursTheConfig) {
  Config cfg;
  cfg.num_sockets = 2;
  const Topology t = make_topology(cfg, 8);
  EXPECT_EQ(t.num_sockets(), 2u);
  EXPECT_EQ(t.socket_of(3), 0u);
  EXPECT_EQ(t.socket_of(4), 1u);

  cfg.num_sockets = 0;  // auto-detect; must still be valid everywhere
  const Topology d = make_topology(cfg, 8);
  EXPECT_EQ(d.num_cores(), 8u);
}

TEST(VictimPolicyNames, RoundTrip) {
  for (VictimPolicy p : {VictimPolicy::kUniform, VictimPolicy::kTiered}) {
    VictimPolicy parsed{};
    ASSERT_TRUE(parse_victim_policy(to_string(p), parsed)) << to_string(p);
    EXPECT_EQ(parsed, p);
  }
  VictimPolicy out{};
  EXPECT_FALSE(parse_victim_policy("bogus", out));
}

// ------------------------------------------------------- TieredVictimOrder

/// The probe order of one sweep in which every probe fails.
std::vector<VictimPick> failed_sweep(TieredVictimOrder& order,
                                     util::Xoshiro256& rng) {
  std::vector<VictimPick> probed;
  const auto hit = order.sweep(rng, [&](VictimPick pick) {
    probed.push_back(pick);
    return false;
  });
  EXPECT_FALSE(hit.has_value());
  return probed;
}

TEST(TieredVictimOrder, SweepIsAPermutationWithNonDecreasingTiers) {
  const Topology topo = Topology::synthetic(8, 2, 2);
  util::Xoshiro256 rng(42);
  for (unsigned self = 0; self < 8; ++self) {
    TieredVictimOrder order(topo, self, 8);
    ASSERT_EQ(order.size(), 7u);
    for (int sweep = 0; sweep < 4; ++sweep) {
      std::set<unsigned> seen;
      int prev_tier = -1;
      for (const VictimPick pick : failed_sweep(order, rng)) {
        ASSERT_NE(pick.victim, self);
        ASSERT_LT(pick.victim, 8u);
        EXPECT_EQ(pick.tier, topo.distance(self, pick.victim));
        EXPECT_GE(static_cast<int>(pick.tier), prev_tier)
            << "tier order regressed mid-sweep";
        prev_tier = static_cast<int>(pick.tier);
        seen.insert(pick.victim);
      }
      EXPECT_EQ(seen.size(), 7u) << "sweep skipped or repeated a victim";
    }
  }
}

TEST(TieredVictimOrder, NearVictimsAreProbedBeforeRemoteOnes) {
  const Topology topo = Topology::synthetic(16, 2);
  util::Xoshiro256 rng(7);
  TieredVictimOrder order(topo, /*self=*/0, 16);
  // Cores 1..7 share socket 0 with the thief; they must be probed before
  // any of 8..15, in every sweep, whatever the shuffles do.
  for (int sweep = 0; sweep < 8; ++sweep) {
    const std::vector<VictimPick> probed = failed_sweep(order, rng);
    ASSERT_EQ(probed.size(), 15u);
    for (int i = 0; i < 7; ++i) {
      EXPECT_LT(probed[i].victim, 8u) << "remote victim before near exhausted";
      EXPECT_EQ(probed[i].tier, DistanceTier::kNear);
    }
    for (int i = 7; i < 15; ++i) {
      EXPECT_GE(probed[i].victim, 8u);
      EXPECT_EQ(probed[i].tier, DistanceTier::kFar);
    }
  }
}

TEST(TieredVictimOrder, SweepStopsAtTheFirstHit) {
  // A hit ends the attempt: nothing after it is probed, and the pick that
  // hit (with its tier) is what the sweep returns. Every sweep starts
  // near-first again, so a far victim is reached only after the whole
  // near tier failed.
  const Topology topo = Topology::synthetic(16, 2);
  util::Xoshiro256 rng(11);
  TieredVictimOrder order(topo, /*self=*/0, 16);
  for (const unsigned target : {3u, 12u}) {
    for (int sweep = 0; sweep < 8; ++sweep) {
      std::vector<VictimPick> probed;
      const auto hit = order.sweep(rng, [&](VictimPick pick) {
        probed.push_back(pick);
        return pick.victim == target;
      });
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->victim, target);
      EXPECT_EQ(hit->tier, topo.distance(0, target));
      ASSERT_FALSE(probed.empty());
      EXPECT_EQ(probed.back().victim, target);
      EXPECT_EQ(probed.front().tier, DistanceTier::kNear);
      if (target < 8) {
        EXPECT_LE(probed.size(), 7u);
      } else {
        EXPECT_GE(probed.size(), 8u);
      }
    }
  }
}

TEST(TieredVictimOrder, WithinTierOrderIsShuffledAcrossSweeps) {
  const Topology topo = Topology::uniform(16);
  util::Xoshiro256 rng(3);
  TieredVictimOrder order(topo, /*self=*/0, 16);
  std::vector<std::vector<unsigned>> sweeps;
  for (int s = 0; s < 6; ++s) {
    std::vector<unsigned> one;
    for (const VictimPick pick : failed_sweep(order, rng)) {
      one.push_back(pick.victim);
    }
    sweeps.push_back(std::move(one));
  }
  // 16 possible starts; six identical consecutive sweeps means the order
  // is not being redrawn.
  bool any_different = false;
  for (std::size_t s = 1; s < sweeps.size(); ++s) {
    if (sweeps[s] != sweeps[0]) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(TieredVictimOrder, UniformPolicyIsOneSegmentSpanningTiers) {
  // kUniform: one segment over all victims. Each sweep still probes every
  // victim once and reports its real tier, but near and far victims mix,
  // and the order changes from sweep to sweep.
  const Topology topo = Topology::synthetic(16, 2);
  util::Xoshiro256 rng(5);
  TieredVictimOrder order(topo, /*self=*/0, 16, VictimPolicy::kUniform);
  ASSERT_EQ(order.size(), 15u);
  bool far_before_near = false;
  std::set<std::vector<unsigned>> orders;
  for (int sweep = 0; sweep < 20; ++sweep) {
    std::vector<unsigned> one;
    bool seen_far = false;
    for (const VictimPick pick : failed_sweep(order, rng)) {
      EXPECT_NE(pick.victim, 0u);
      EXPECT_EQ(pick.tier, topo.distance(0, pick.victim));
      if (pick.tier == DistanceTier::kFar) seen_far = true;
      if (pick.tier == DistanceTier::kNear && seen_far) far_before_near = true;
      one.push_back(pick.victim);
    }
    EXPECT_EQ(std::set<unsigned>(one.begin(), one.end()).size(), 15u)
        << "sweep skipped or repeated a victim";
    orders.insert(std::move(one));
  }
  EXPECT_TRUE(far_before_near) << "the single segment kept tiers apart";
  EXPECT_GT(orders.size(), 1u) << "the order is not redrawn per sweep";
}

TEST(TieredVictimOrder, SingleWorkerHasNoVictims) {
  const Topology topo = Topology::uniform(1);
  util::Xoshiro256 rng(1);
  for (VictimPolicy policy : {VictimPolicy::kTiered, VictimPolicy::kUniform}) {
    TieredVictimOrder order(topo, 0, 1, policy);
    EXPECT_TRUE(order.empty());
    EXPECT_TRUE(failed_sweep(order, rng).empty());
  }
}

}  // namespace
}  // namespace dws
