// Victim ordering for Algorithm 1's steal attempts, shared by the real
// runtime's workers and the simulator's.
//
// One steal attempt is one *sweep*: sweep(rng, probe) probes every other
// worker at most once and stops at the first hit. Both executors count a
// failed sweep as one failed steal, so Algorithm 1's T_SLEEP threshold
// means the same thing in the runtime and in the simulator.
//
// Under VictimPolicy::kTiered the victims are bucketed by distance tier
// (core/topology.hpp) once, at construction, and a sweep probes them
// near-first, as distbdd-spin17's wstealer does: every VERYNEAR victim
// before any NEAR one, and so on. Under kUniform all victims form one
// segment. Each sweep draws one random start id in [0, num_workers);
// every segment is probed in circular id order from its first victim at
// or after that start, so the probe order changes from sweep to sweep.
// The draw is not uniform over a segment's victims: the victim after the
// widest gap in the segment's ids (the lowest id of a contiguous socket
// block, say) comes first most often. This is the simulator's historical
// sweep order, kept so that its Fig. 4-6 numbers do not move. Either way
// every probe reports the victim's real distance tier.
//
// Starvation-freedom is by construction: a failed sweep has probed every
// victim. tests/test_check_victims.cpp certifies the near-first
// permutation exhaustively over every start the rng can draw.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/topology.hpp"
#include "core/types.hpp"

namespace dws {

/// One probe target: who to probe and how far away they are (the tier
/// indexes the per-tier steal and probe counters).
struct VictimPick {
  unsigned victim = 0;
  DistanceTier tier = DistanceTier::kVeryFar;
};

class TieredVictimOrder {
 public:
  TieredVictimOrder() = default;

  /// The victims of worker `self` among `num_workers` workers (worker id
  /// == core id): one segment per non-empty distance tier, nearest first,
  /// under kTiered; one segment of all victims under kUniform. Each
  /// segment is in ascending id order.
  TieredVictimOrder(const Topology& topo, unsigned self, unsigned num_workers,
                    VictimPolicy policy = VictimPolicy::kTiered)
      : num_workers_(num_workers) {
    const bool tiered = policy == VictimPolicy::kTiered;
    for (unsigned t = 0; t < (tiered ? kNumDistanceTiers : 1); ++t) {
      const std::size_t begin = victims_.size();
      for (unsigned v = 0; v < num_workers; ++v) {
        if (v == self) continue;
        const DistanceTier d = topo.distance(self, v);
        if (!tiered || static_cast<unsigned>(d) == t) {
          victims_.push_back({v, d});
        }
      }
      if (victims_.size() > begin) segment_ends_.push_back(victims_.size());
    }
  }

  [[nodiscard]] bool empty() const noexcept { return victims_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return victims_.size(); }

  /// One steal attempt: draw a start id from `rng`, then probe the
  /// segments in order, each circularly from its first victim at or after
  /// the start, until `probe(pick)` returns true. Returns that pick, or
  /// nothing when every victim was probed and none hit (one failed steal).
  template <typename Rng, typename Probe>
  std::optional<VictimPick> sweep(Rng& rng, Probe&& probe) const {
    if (victims_.empty()) return std::nullopt;
    const auto start = static_cast<unsigned>(rng.next_below(num_workers_));
    std::size_t begin = 0;
    for (const std::size_t end : segment_ends_) {
      std::size_t first = begin;
      while (first < end && victims_[first].victim < start) ++first;
      for (std::size_t i = first; i < end; ++i) {
        if (probe(victims_[i])) return victims_[i];
      }
      for (std::size_t i = begin; i < first; ++i) {
        if (probe(victims_[i])) return victims_[i];
      }
      begin = end;
    }
    return std::nullopt;
  }

 private:
  unsigned num_workers_ = 0;
  std::vector<VictimPick> victims_;        // segment by segment, ids ascending
  std::vector<std::size_t> segment_ends_;  // end of each non-empty segment
};

}  // namespace dws
