// False-sharing layout guardrail: measures the two layouts the
// shared-memory interference analysis flagged and fixed, and emits
// BENCH_false_sharing.json (same shape as BENCH_spawn_steal.json).
//
// Legs:
//  - core-table-churn: T claimant threads, each doing try_claim/release
//    churn on its OWN core id through CoreOps — the §3.1 CAS protocol —
//    over the historical PackedCoreSlot table (16 slots per cache line,
//    every neighbour's CAS invalidates the line) versus the production
//    StridedCoreSlot table (one slot per line). Each thread churns a
//    distinct core, so there is no *logical* contention at all: any
//    packed-vs-strided gap is pure cache-line interference, which is
//    exactly what the dws-atomic-array check exists to flag.
//  - steal-storm: an owner pushes and drains a ChaseLevDeque while two
//    thieves steal from the top end, with a foreign writer hammering an
//    atomic word that is line-adjacent to the owner's plain stats
//    counters (packed) versus alignas(64)-isolated from them (padded) —
//    the WorkerStats shape before and after the layout fix.
//
// The guardrail per leg is relative, like the other perf guardrails:
//   fixed_mean <= packed_mean * (1 + 3*cv + tolerance),  cv = max leg cv,
// i.e. the line-isolated layout must never be slower than the packed one
// beyond the noise band. The speedup (packed_mean / fixed_mean) is
// recorded per leg; on a multi-core host the churn leg shows the
// coherence win directly. On a single-CPU host (host_cpus is recorded in
// the JSON) the threads timeshare, no cache line ever migrates between
// caches, and both layouts measure alike — the bound still gates that
// the 64 B/slot padding costs nothing, which is the regression this
// guardrail exists to catch.
//
// Usage: bench_false_sharing [--reps=9] [--warmup=2] [--churn-threads=4]
//          [--churn-iters=200000] [--storm-items=400000]
//          [--tolerance=0.25] [--out=BENCH_false_sharing.json]
//
// Exit status: 0 when every leg is within bound, 1 otherwise. The JSON
// artifact records every leg either way.
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ab.hpp"
#include "core/core_ops.hpp"
#include "runtime/deque.hpp"
#include "util/cli.hpp"
#include "util/layout.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace dws;
using bench::json_stats;

// ------------------------------------------------------------- churn leg

/// One timed rep of the claim/release churn over slot layout SlotT.
/// Returns ns per CAS transition (claim and release each count as one).
template <template <typename> class SlotT>
double churn_rep(unsigned threads, long iters) {
  using Ops = CoreOps<StdAtomicsPolicy, SlotT>;
  using Slot = typename Ops::Slot;
  std::vector<Slot> slots(threads);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> team;  // dws-lint-sanction: bench drives the core-table CAS protocol directly, below the scheduler
  team.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    team.emplace_back([&, t] {  // dws-lint-sanction: bench drives the core-table CAS protocol directly, below the scheduler
      const ProgramId pid = static_cast<ProgramId>(t + 1);
      ready.fetch_add(1, std::memory_order_relaxed);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (long i = 0; i < iters; ++i) {
        // Each thread owns core id t outright, so both transitions
        // succeed every time — the loop measures layout, not protocol
        // contention.
        Ops::try_claim(slots.data(), t, pid);
        Ops::release(slots.data(), t, pid);
      }
    });
  }
  while (ready.load(std::memory_order_relaxed) != threads)
    std::this_thread::yield();
  util::Stopwatch sw;
  go.store(true, std::memory_order_release);
  for (auto& th : team) th.join();
  return sw.elapsed_ms() * 1e6 /
         (static_cast<double>(threads) * static_cast<double>(iters) * 2.0);
}

// ------------------------------------------------------------- storm leg

/// The WorkerStats shape BEFORE the layout fix: the owner's plain
/// counters share a cache line with a word other threads write. The
/// foreign writer's RMWs steal the line from the owner on every bump.
struct PackedStatsBlock {
  std::uint64_t owner_pushes = 0;
  std::uint64_t owner_pops = 0;
  std::atomic<std::uint64_t> foreign{0};
};

/// AFTER the fix: owner counters and the cross-thread word on lines of
/// their own, as WorkerStats and the scheduler's shared words are now.
struct alignas(64) PaddedStatsBlock {
  alignas(64) std::uint64_t owner_pushes = 0;
  std::uint64_t owner_pops = 0;
  alignas(64) std::atomic<std::uint64_t> foreign{0};
};

/// One timed rep of the owner's push/drain phase with 2 thieves stealing
/// and a foreign writer hammering Stats::foreign. Returns ns per owner
/// deque operation.
template <typename Stats>
double storm_rep(long items) {
  rt::ChaseLevDeque<std::intptr_t> d(1024);
  Stats st;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stolen{0};
  std::vector<std::thread> helpers;  // dws-lint-sanction: bench drives the thief side of the deque directly, below the scheduler
  for (int i = 0; i < 2; ++i) {
    helpers.emplace_back([&] {  // dws-lint-sanction: bench drives the thief side of the deque directly, below the scheduler
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        if (d.steal()) ++n;
      }
      stolen.fetch_add(n, std::memory_order_relaxed);
    });
  }
  helpers.emplace_back([&] {  // dws-lint-sanction: bench needs a foreign writer hammering the stats line under test
    while (!stop.load(std::memory_order_relaxed))
      st.foreign.fetch_add(1, std::memory_order_relaxed);
  });

  util::Stopwatch sw;
  for (long i = 0; i < items; ++i) {
    d.push(i + 1);
    ++st.owner_pushes;
  }
  while (d.pop()) ++st.owner_pops;
  const double ns = sw.elapsed_ms() * 1e6 / static_cast<double>(items);

  stop.store(true, std::memory_order_relaxed);
  for (auto& th : helpers) th.join();
  // Keep the counters observable so the owner-side increments cannot be
  // optimized out from under the measurement.
  if (st.owner_pushes != static_cast<std::uint64_t>(items) ||
      st.owner_pops + stolen.load(std::memory_order_relaxed) <
          st.owner_pushes) {
    std::cerr << "storm accounting hole: pushes=" << st.owner_pushes
              << " pops=" << st.owner_pops << " stolen=" << stolen << "\n";
    std::exit(2);
  }
  return ns;
}

// ---------------------------------------------------------------- legs

/// A/B samples for one leg: the packed (interfering) layout against the
/// line-isolated fix.
struct Leg {
  std::string workload;
  std::string unit;
  util::Samples packed_ns, fixed_ns;
  double speedup = 0.0;  // packed_mean / fixed_mean
  double bound = 0.0;
  bool within = false;
};

template <typename PackedRep, typename FixedRep>
Leg run_leg(const char* name, const char* unit, int reps, int warmup,
            double tolerance, PackedRep packed, FixedRep fixed) {
  Leg leg;
  leg.workload = name;
  leg.unit = unit;
  bench::warm_up(warmup, packed, fixed);
  bench::alternate(reps, packed, fixed, [&](double p, double f) {
    leg.packed_ns.add(p);
    leg.fixed_ns.add(f);
  });
  leg.bound = bench::ab_bound(leg.packed_ns, leg.fixed_ns, tolerance);
  leg.speedup = leg.fixed_ns.mean() > 0.0
                    ? leg.packed_ns.mean() / leg.fixed_ns.mean()
                    : 0.0;
  leg.within = leg.fixed_ns.mean() <= leg.packed_ns.mean() * leg.bound;
  std::cout << leg.workload << ": packed " << leg.packed_ns.summary() << " "
            << unit << ", fixed " << leg.fixed_ns.summary() << " " << unit
            << ", speedup " << leg.speedup << " (bound " << leg.bound << ") "
            << (leg.within ? "ok" : "EXCEEDED") << "\n";
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 9));
  const int warmup = static_cast<int>(args.get_int("warmup", 2));
  const unsigned churn_threads =
      static_cast<unsigned>(args.get_int("churn-threads", 4));
  const long churn_iters = args.get_int("churn-iters", 200000);
  const long storm_items = args.get_int("storm-items", 400000);
  const double tolerance = args.get_double("tolerance", 0.25);
  const std::string out_path =
      args.get_str("out", "BENCH_false_sharing.json");
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::cout << "=== False-sharing layout guardrail (reps=" << reps
            << ", warmup=" << warmup << ", churn-threads=" << churn_threads
            << ", churn-iters=" << churn_iters
            << ", storm-items=" << storm_items
            << ", tolerance=" << tolerance << ", host-cpus=" << host_cpus
            << ") ===\n";

  std::vector<Leg> legs;
  legs.push_back(run_leg(
      "core-table-churn", "ns/cas", reps, warmup, tolerance,
      [&] { return churn_rep<PackedCoreSlot>(churn_threads, churn_iters); },
      [&] { return churn_rep<StridedCoreSlot>(churn_threads, churn_iters); }));
  legs.push_back(run_leg(
      "steal-storm", "ns/op", reps, warmup, tolerance,
      [&] { return storm_rep<PackedStatsBlock>(storm_items); },
      [&] { return storm_rep<PaddedStatsBlock>(storm_items); }));

  bool pass = true;
  for (const auto& leg : legs) pass = pass && leg.within;

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"false_sharing\",\n"
      << "  \"reps\": " << reps << ",\n  \"warmup\": " << warmup << ",\n"
      << "  \"churn_threads\": " << churn_threads << ",\n"
      << "  \"churn_iters\": " << churn_iters << ",\n"
      << "  \"storm_items\": " << storm_items << ",\n"
      << "  \"host_cpus\": " << host_cpus << ",\n"
      << "  \"tolerance\": " << tolerance << ",\n  \"legs\": [\n";
  bool first = true;
  for (const auto& leg : legs) {
    if (!first) out << ",\n";
    first = false;
    out << "   {\"workload\": \"" << leg.workload << "\", \"unit\": \""
        << leg.unit << "\",\n";
    json_stats(out, "packed_ns", leg.packed_ns);
    out << ",\n";
    json_stats(out, "fixed_ns", leg.fixed_ns);
    out << ",\n    \"speedup\": " << leg.speedup << ", \"bound\": "
        << leg.bound << ", \"within_bound\": "
        << (leg.within ? "true" : "false") << "}";
  }
  out << "\n  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  out.close();
  std::cout << (pass ? "PASS" : "FAIL") << " — wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
