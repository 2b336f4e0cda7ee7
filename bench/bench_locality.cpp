// Locality guardrail: tiered (near-first) victim selection against the
// historical uniform sweep, emitting BENCH_locality.json (same shape as
// the other BENCH_*.json guardrail artifacts).
//
// Legs (A = uniform baseline, B = tiered):
//  - sim-cross-socket-corun: two DWS programs co-running on the paper's
//    16-core / 2-socket machine in the simulator, with tier-dependent
//    steal-migration costs switched ON (they default to zero so the paper
//    figures are untouched). Every steal that crosses the interconnect
//    pays its tier's transfer cost, so near-first ordering buys real
//    simulated time. Metric: mean per-run time averaged over the two
//    programs; seeds vary per rep, paired between A and B.
//  - sim-blocked-linalg: a solo blocked-factorization-shaped workload
//    (decreasing-parallelism phases, memory-intense tiles) on the same
//    NUMA machine — the narrow trailing phases are where thieves roam and
//    remote steals hurt.
//  - runtime-blocked-linalg: the real runtime running the tiled Cholesky
//    kernel under a synthetic 2-socket topology, tiered vs uniform. On a
//    CI host (often 1-2 CPUs, no real NUMA) this leg is a *neutrality*
//    guardrail: tiered must not be slower beyond the noise band. The JSON
//    records the per-tier steal counters of the tiered run, proving the
//    near-first order was actually exercised rather than passing
//    vacuously.
//
// Guardrail per leg, like the other perf guardrails:
//   tiered_mean <= uniform_mean * (1 + 3*cv + tolerance),  cv = max leg cv.
//
// Usage: bench_locality [--reps=7] [--warmup=1] [--runs=3] [--n=96]
//          [--block=32] [--tolerance=0.25] [--out=BENCH_locality.json]
//
// Exit status: 0 when every leg is within bound, 1 otherwise.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ab.hpp"
#include "apps/blocked_linalg.hpp"
#include "core/topology.hpp"
#include "runtime/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace dws;
using bench::json_stats;

/// The paper's 2-socket testbed with NUMA steal-transfer costs enabled.
/// Same-socket steals are near-free; crossing the interconnect costs a
/// few sweep-lengths of time (order-of-magnitude 2010s x86 QPI).
sim::SimParams numa_machine(VictimPolicy policy, std::uint64_t seed) {
  sim::SimParams p;
  p.num_cores = 16;
  p.num_sockets = 2;
  p.victim_policy = policy;
  p.steal_tier_migration_us[static_cast<int>(DistanceTier::kVeryNear)] = 0.0;
  p.steal_tier_migration_us[static_cast<int>(DistanceTier::kNear)] = 0.5;
  p.steal_tier_migration_us[static_cast<int>(DistanceTier::kFar)] = 8.0;
  p.steal_tier_migration_us[static_cast<int>(DistanceTier::kVeryFar)] = 16.0;
  p.seed = seed;
  return p;
}

/// One co-run rep: three DWS programs over the NUMA machine; returns the
/// mean per-run time (us) averaged over all three. Two programs would each
/// get exactly one 8-core socket from the topology-aware coordinator and
/// never steal across the interconnect; the third forces one worker set to
/// straddle the socket boundary, so remote steals genuinely occur and the
/// victim policy has something to decide. When `sim_tiers` is non-null the
/// per-tier steal counts of all programs are accumulated into it.
double corun_rep(VictimPolicy policy, std::uint64_t seed, unsigned runs,
                 const sim::TaskDag* dag_a, const sim::TaskDag* dag_b,
                 const sim::TaskDag* dag_c, std::uint64_t* sim_tiers) {
  sim::SimProgramSpec a;
  a.name = "A";
  a.mode = SchedMode::kDws;
  a.dag = dag_a;
  a.target_runs = runs;
  a.default_mem_intensity = 0.5;
  sim::SimProgramSpec b = a;
  b.name = "B";
  b.dag = dag_b;
  sim::SimProgramSpec c = a;
  c.name = "C";
  c.dag = dag_c;
  sim::SimEngine engine(numa_machine(policy, seed), {a, b, c});
  const sim::SimResult r = engine.run();
  double sum = 0.0;
  for (const auto& prog : r.programs) {
    sum += prog.mean_run_time_us;
    if (sim_tiers != nullptr) {
      for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
        sim_tiers[t] += prog.steals_by_tier[t];
      }
    }
  }
  return sum / static_cast<double>(r.programs.size());
}

/// One solo blocked-linalg-shaped rep in the simulator; returns the mean
/// per-run time (us).
double sim_linalg_rep(VictimPolicy policy, std::uint64_t seed, unsigned runs,
                      const sim::TaskDag* dag) {
  sim::SimProgramSpec s;
  s.name = "linalg";
  s.mode = SchedMode::kDws;
  s.dag = dag;
  s.target_runs = runs;
  s.default_mem_intensity = 0.7;
  const sim::SimResult r = sim::simulate_solo(numa_machine(policy, seed), s);
  return r.programs[0].mean_run_time_us;
}

/// Accumulated per-tier steal evidence from the tiered runtime legs.
struct TierEvidence {
  std::uint64_t probes[kNumDistanceTiers] = {0, 0, 0, 0};
  std::uint64_t steals[kNumDistanceTiers] = {0, 0, 0, 0};
};

/// One real-runtime rep: tiled Cholesky on a synthetic 2-socket machine.
/// Returns ms per factorization; accumulates tier counters when asked.
double runtime_linalg_rep(VictimPolicy policy, std::size_t n,
                          std::size_t block, TierEvidence* evidence) {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = 8;
  cfg.num_sockets = 2;
  cfg.victim_policy = policy;
  cfg.pin_threads = false;  // CI hosts may have fewer cores than k
  rt::Scheduler sched(cfg);
  apps::BlockedCholeskyApp app(n, block, 42);
  app.run(sched);  // warm-up (first touch + pool ramp)
  util::Stopwatch sw;
  app.run(sched);
  const double ms = sw.elapsed_ms();
  if (evidence != nullptr) {
    const rt::SchedulerStats s = sched.stats();
    for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
      evidence->probes[t] += s.totals.probes_by_tier[t];
      evidence->steals[t] += s.totals.steals_by_tier[t];
    }
  }
  return ms;
}

struct Leg {
  std::string workload;
  std::string unit;
  util::Samples uniform, tiered;
  double speedup = 0.0;  // uniform_mean / tiered_mean
  double bound = 0.0;
  bool within = false;
};

template <typename UniformRep, typename TieredRep>
Leg run_leg(const char* name, const char* unit, int reps, int warmup,
            double tolerance, UniformRep uniform, TieredRep tiered) {
  Leg leg;
  leg.workload = name;
  leg.unit = unit;
  bench::warm_up(warmup, uniform, tiered);
  bench::alternate(reps, uniform, tiered, [&](double u, double t) {
    leg.uniform.add(u);
    leg.tiered.add(t);
  });
  leg.bound = bench::ab_bound(leg.uniform, leg.tiered, tolerance);
  leg.speedup =
      leg.tiered.mean() > 0.0 ? leg.uniform.mean() / leg.tiered.mean() : 0.0;
  leg.within = leg.tiered.mean() <= leg.uniform.mean() * leg.bound;
  std::cout << leg.workload << ": uniform " << leg.uniform.summary() << " "
            << unit << ", tiered " << leg.tiered.summary() << " " << unit
            << ", speedup " << leg.speedup << " (bound " << leg.bound << ") "
            << (leg.within ? "ok" : "EXCEEDED") << "\n";
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 7));
  const int warmup = static_cast<int>(args.get_int("warmup", 1));
  const unsigned runs = static_cast<unsigned>(args.get_int("runs", 3));
  const auto n = static_cast<std::size_t>(args.get_int("n", 96));
  const auto block = static_cast<std::size_t>(args.get_int("block", 32));
  const double tolerance = args.get_double("tolerance", 0.25);
  const std::string out_path = args.get_str("out", "BENCH_locality.json");
  const unsigned host_cpus = std::thread::hardware_concurrency();

  std::cout << "=== Locality guardrail: tiered vs uniform victim selection"
            << " (reps=" << reps << ", warmup=" << warmup << ", runs=" << runs
            << ", n=" << n << ", block=" << block
            << ", tolerance=" << tolerance << ", host-cpus=" << host_cpus
            << ") ===\n";

  // Co-run mix: two irregular trees against an iterative stencil — the
  // §4 flavour of "programs with phase-shifted demand", which keeps the
  // coordinators exchanging cores (and thieves roaming) all run. Three
  // programs on 16 cores guarantee at least one worker set straddles the
  // socket boundary (16/3 never lands on an 8-core socket edge).
  const sim::TaskDag mix_a =
      sim::make_irregular_tree(/*seed=*/7, /*target_nodes=*/900,
                               /*max_fanout=*/4, 20.0, 120.0, 0.5);
  const sim::TaskDag mix_b = sim::make_iterative_phases(24, 48, 40.0, 0.5);
  const sim::TaskDag mix_c =
      sim::make_irregular_tree(/*seed=*/13, /*target_nodes=*/700,
                               /*max_fanout=*/4, 20.0, 120.0, 0.5);
  // Blocked right-looking factorization shape: wide early phases, narrow
  // memory-heavy trailing ones.
  const sim::TaskDag linalg =
      sim::make_decreasing_parallelism(24, 48, 2, 70.0, 0.7);

  std::vector<Leg> legs;
  std::uint64_t corun_uniform_tiers[kNumDistanceTiers] = {0, 0, 0, 0};
  std::uint64_t corun_tiered_tiers[kNumDistanceTiers] = {0, 0, 0, 0};
  {
    std::uint64_t ua = 0, ta = 0;
    legs.push_back(run_leg(
        "sim-cross-socket-corun", "us/run", reps, warmup, tolerance,
        [&] {
          return corun_rep(VictimPolicy::kUniform, 0xD5EED + ua++, runs,
                           &mix_a, &mix_b, &mix_c, corun_uniform_tiers);
        },
        [&] {
          return corun_rep(VictimPolicy::kTiered, 0xD5EED + ta++, runs,
                           &mix_a, &mix_b, &mix_c, corun_tiered_tiers);
        }));
  }
  {
    std::uint64_t ua = 0, ta = 0;
    legs.push_back(run_leg(
        "sim-blocked-linalg", "us/run", reps, warmup, tolerance,
        [&] {
          return sim_linalg_rep(VictimPolicy::kUniform, 0xB10C + ua++, runs,
                                &linalg);
        },
        [&] {
          return sim_linalg_rep(VictimPolicy::kTiered, 0xB10C + ta++, runs,
                                &linalg);
        }));
  }
  TierEvidence evidence;
  legs.push_back(run_leg(
      "runtime-blocked-linalg", "ms/run", reps, warmup, tolerance,
      [&] {
        return runtime_linalg_rep(VictimPolicy::kUniform, n, block, nullptr);
      },
      [&] {
        return runtime_linalg_rep(VictimPolicy::kTiered, n, block, &evidence);
      }));

  bool pass = true;
  for (const auto& leg : legs) pass = pass && leg.within;
  // The neutral runtime leg must not pass vacuously: the tiered scheduler
  // has a 2-socket model, so near-tier probes must actually occur.
  const auto near_probes =
      evidence.probes[static_cast<int>(DistanceTier::kNear)];
  if (near_probes == 0) {
    std::cerr << "tiered runtime leg recorded no near-tier victim probes —"
              << " near-first ordering was not exercised\n";
    pass = false;
  }
  // Likewise the co-run leg: the uniform baseline must have crossed the
  // interconnect at least once, or the mix never left its home socket and
  // the tiered-vs-uniform comparison compared nothing.
  const auto far_idx = static_cast<int>(DistanceTier::kFar);
  if (corun_uniform_tiers[far_idx] +
          corun_uniform_tiers[static_cast<int>(DistanceTier::kVeryFar)] ==
      0) {
    std::cerr << "co-run leg recorded no cross-socket steals under the"
              << " uniform baseline — the mix is socket-local and the leg"
              << " is vacuous\n";
    pass = false;
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"locality\",\n"
      << "  \"reps\": " << reps << ",\n  \"warmup\": " << warmup << ",\n"
      << "  \"sim_runs\": " << runs << ",\n  \"linalg_n\": " << n << ",\n"
      << "  \"linalg_block\": " << block << ",\n"
      << "  \"host_cpus\": " << host_cpus << ",\n"
      << "  \"tolerance\": " << tolerance << ",\n  \"legs\": [\n";
  bool first = true;
  for (const auto& leg : legs) {
    if (!first) out << ",\n";
    first = false;
    out << "   {\"workload\": \"" << leg.workload << "\", \"unit\": \""
        << leg.unit << "\",\n";
    json_stats(out, "uniform", leg.uniform);
    out << ",\n";
    json_stats(out, "tiered", leg.tiered);
    out << ",\n    \"speedup\": " << leg.speedup << ", \"bound\": "
        << leg.bound << ", \"within_bound\": "
        << (leg.within ? "true" : "false") << "}";
  }
  out << "\n  ],\n  \"corun_uniform_steals_by_tier\": [";
  for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
    out << (t > 0 ? ", " : "") << corun_uniform_tiers[t];
  }
  out << "],\n  \"corun_tiered_steals_by_tier\": [";
  for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
    out << (t > 0 ? ", " : "") << corun_tiered_tiers[t];
  }
  out << "],\n  \"tiered_runtime_steal_attempts_by_tier\": [";
  for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
    out << (t > 0 ? ", " : "") << evidence.probes[t];
  }
  out << "],\n  \"tiered_runtime_steals_by_tier\": [";
  for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
    out << (t > 0 ? ", " : "") << evidence.steals[t];
  }
  out << "],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  out.close();
  std::cout << (pass ? "PASS" : "FAIL") << " — wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
