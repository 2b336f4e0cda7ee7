// Spawn/steal hot-path benchmark and perf guardrail: measures ns-per-spawn
// and ns-per-steal with pooled task storage (Config::pool_tasks, the
// default) against the heap-allocating fallback, plus raw ChaseLevDeque
// push/pop/steal/grow costs, and emits BENCH_spawn_steal.json (same shape as
// BENCH_deadlock_overhead.json).
//
// Legs:
//  - spawn-batch (1 core): the spawner pushes `tasks` empty tasks, then
//    waits. With one worker nothing executes concurrently, so the pool's
//    high-water mark is exactly `tasks` on every rep — after warm-up the
//    pooled leg's slab count must not move at all. This is the
//    deterministic zero-alloc steady-state check; ns_per_spawn times just
//    the spawn loop (allocate + construct + push), ns_per_task the full
//    spawn/run/recycle cycle.
//  - spawn-steal (2 cores): the same batch with a second worker stealing
//    and remote-freeing concurrently — the cross-thread half of the
//    recycle protocol at benchmark rates. Allocation counts are reported
//    but not gated to exactly zero (the high-water mark is
//    schedule-dependent); the per-task allocation rate still must be
//    ~zero.
//  - deque-push-pop / deque-steal: the raw ChaseLevDeque primitives
//    underneath, owner-only and thief-drain respectively.
//  - deque-grow: ns per push into fresh deques of capacity 2, each filled
//    with kGrowPushes items, so every push batch pays the geometric
//    growth path (and the destructor's free of the retired buffers).
//
// Heap/pooled reps alternate (heap, pooled, heap, ...) so drift lands on
// both legs equally; `--warmup` reps per leg are discarded, absorbing the
// cold-allocator jitter of the first iterations (slab carving on the
// pooled side, allocator warm-up on the heap side). The guardrail per
// spawn leg is
//   pooled_mean <= heap_mean * (1 + 3*cv + tolerance),  cv = max leg cv,
// plus a pooled allocation rate of <= 0.01 heap allocations per task.
//
// Usage: bench_spawn [--reps=9] [--warmup=2] [--tasks=20000]
//          [--deque-items=200000] [--tolerance=0.25]
//          [--out=BENCH_spawn_steal.json]
//
// Exit status: 0 when every gated leg is within bound, 1 otherwise. The
// JSON artifact records every leg either way.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "ab.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace dws;
using bench::json_stats;

constexpr long kGrowPushes = 4096;  // per cold deque: 11 grows from 2

Config spawn_config(unsigned cores, bool pooled) {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = cores;
  cfg.pin_threads = false;
  cfg.pool_tasks = pooled;
  return cfg;
}

/// One timed rep on `sched`: spawn `tasks` empty tasks from a root task,
/// then wait for them. Returns {spawn-loop ns/task, full-cycle ns/task}.
struct RepTimes {
  double spawn_ns = 0.0;
  double task_ns = 0.0;
};

RepTimes spawn_batch_rep(rt::Scheduler& sched, long tasks) {
  RepTimes t;
  sched.run([&sched, tasks, &t] {
    rt::TaskGroup g;
    util::Stopwatch sw;
    for (long i = 0; i < tasks; ++i) sched.spawn(g, [] {});
    t.spawn_ns = sw.elapsed_ms() * 1e6 / static_cast<double>(tasks);
    sched.wait(g);
    t.task_ns = sw.elapsed_ms() * 1e6 / static_cast<double>(tasks);
  });
  return t;
}

/// A/B samples plus allocation accounting for one spawn leg.
struct SpawnLeg {
  std::string workload;
  unsigned cores = 1;
  util::Samples heap_spawn_ns, pooled_spawn_ns;
  util::Samples heap_task_ns, pooled_task_ns;
  double heap_allocs_per_task = 0.0;
  double pooled_allocs_per_task = 0.0;
  std::uint64_t pooled_steady_slab_allocs = 0;  // over all measured reps
  bool zero_alloc_steady_state = false;
  double speedup = 0.0;  // heap_spawn_ns / pooled_spawn_ns
  double bound = 0.0;
  bool within = false;
  bool alloc_ok = false;
};

SpawnLeg run_spawn_leg(const char* name, unsigned cores, int reps,
                       int warmup, long tasks, double tolerance) {
  SpawnLeg leg;
  leg.workload = name;
  leg.cores = cores;
  rt::Scheduler heap_sched(spawn_config(cores, /*pooled=*/false));
  rt::Scheduler pooled_sched(spawn_config(cores, /*pooled=*/true));

  auto heap = [&] { return spawn_batch_rep(heap_sched, tasks); };
  auto pooled = [&] { return spawn_batch_rep(pooled_sched, tasks); };
  bench::warm_up(warmup, heap, pooled);
  // Post-warm-up baseline: everything from here on is steady state.
  const rt::TaskAllocStats heap0 = heap_sched.alloc_stats();
  const rt::TaskAllocStats pooled0 = pooled_sched.alloc_stats();

  bench::alternate(reps, heap, pooled, [&](RepTimes h, RepTimes p) {
    leg.heap_spawn_ns.add(h.spawn_ns);
    leg.heap_task_ns.add(h.task_ns);
    leg.pooled_spawn_ns.add(p.spawn_ns);
    leg.pooled_task_ns.add(p.task_ns);
  });

  const rt::TaskAllocStats heap1 = heap_sched.alloc_stats();
  const rt::TaskAllocStats pooled1 = pooled_sched.alloc_stats();
  const double n = static_cast<double>(reps) * static_cast<double>(tasks);
  leg.heap_allocs_per_task =
      static_cast<double>(heap1.heap_spawns - heap0.heap_spawns) / n;
  leg.pooled_steady_slab_allocs = pooled1.slab_allocs - pooled0.slab_allocs;
  leg.pooled_allocs_per_task =
      static_cast<double>(leg.pooled_steady_slab_allocs) / n;
  leg.zero_alloc_steady_state = leg.pooled_steady_slab_allocs == 0;

  leg.bound =
      bench::ab_bound(leg.heap_spawn_ns, leg.pooled_spawn_ns, tolerance);
  leg.speedup = leg.pooled_spawn_ns.mean() > 0.0
                    ? leg.heap_spawn_ns.mean() / leg.pooled_spawn_ns.mean()
                    : 0.0;
  leg.within =
      leg.pooled_spawn_ns.mean() <= leg.heap_spawn_ns.mean() * leg.bound;
  leg.alloc_ok = leg.pooled_allocs_per_task <= 0.01;

  std::cout << leg.workload << " (cores=" << cores << "): heap "
            << leg.heap_spawn_ns.summary() << " ns/spawn, pooled "
            << leg.pooled_spawn_ns.summary() << " ns/spawn, speedup "
            << leg.speedup << " (bound " << leg.bound << ") "
            << (leg.within ? "ok" : "EXCEEDED") << "; pooled allocs/task "
            << leg.pooled_allocs_per_task
            << (leg.zero_alloc_steady_state ? " [steady-state zero-alloc]"
                                            : "")
            << (leg.alloc_ok ? "" : " [alloc rate EXCEEDED]") << "\n";
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 9));
  const int warmup = static_cast<int>(args.get_int("warmup", 2));
  const long tasks = args.get_int("tasks", 20000);
  const long deque_items = args.get_int("deque-items", 200000);
  const double tolerance = args.get_double("tolerance", 0.25);
  const std::string out_path = args.get_str("out", "BENCH_spawn_steal.json");

  std::cout << "=== Spawn/steal hot-path guardrail (reps=" << reps
            << ", warmup=" << warmup << ", tasks=" << tasks
            << ", deque-items=" << deque_items
            << ", tolerance=" << tolerance << ") ===\n";

  std::vector<SpawnLeg> spawn_legs;
  spawn_legs.push_back(
      run_spawn_leg("spawn-batch", 1, reps, warmup, tasks, tolerance));
  spawn_legs.push_back(
      run_spawn_leg("spawn-steal", 2, reps, warmup, tasks, tolerance));

  // Raw deque primitives underneath the scheduler paths.
  util::Samples push_pop_ns;
  util::Samples steal_ns;
  for (int r = 0; r < warmup + reps; ++r) {
    rt::ChaseLevDeque<std::intptr_t> d(64);
    {
      util::Stopwatch sw;
      for (long i = 0; i < deque_items; ++i) d.push(i);
      while (d.pop()) {
      }
      if (r >= warmup) {
        push_pop_ns.add(sw.elapsed_ms() * 1e6 /
                        static_cast<double>(2 * deque_items));
      }
    }
    {
      for (long i = 0; i < deque_items; ++i) d.push(i);
      util::Stopwatch sw;
      std::thread thief([&d] {  // dws-lint-sanction: bench drives the thief side of the deque directly, below the scheduler
        while (d.steal()) {
        }
      });
      thief.join();
      if (r >= warmup) {
        steal_ns.add(sw.elapsed_ms() * 1e6 /
                     static_cast<double>(deque_items));
      }
    }
  }
  util::Samples grow_ns;
  const long grow_deques = std::max(1L, deque_items / kGrowPushes);
  for (int r = 0; r < warmup + reps; ++r) {
    util::Stopwatch sw;
    for (long k = 0; k < grow_deques; ++k) {
      rt::ChaseLevDeque<std::intptr_t> d(2);
      for (long i = 0; i < kGrowPushes; ++i) d.push(i);
    }
    if (r >= warmup) {
      grow_ns.add(sw.elapsed_ms() * 1e6 /
                  static_cast<double>(grow_deques * kGrowPushes));
    }
  }
  std::cout << "deque-push-pop: " << push_pop_ns.summary()
            << " ns/op; deque-steal: " << steal_ns.summary()
            << " ns/steal; deque-grow: " << grow_ns.summary()
            << " ns/push\n";

  bool pass = true;
  for (const auto& leg : spawn_legs) pass = pass && leg.within && leg.alloc_ok;
  // The 1-core leg's high-water mark is deterministic: steady state must
  // be allocation-free outright, not merely low-rate.
  pass = pass && spawn_legs[0].zero_alloc_steady_state;

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"spawn_steal\",\n"
      << "  \"reps\": " << reps << ",\n  \"warmup\": " << warmup << ",\n"
      << "  \"tasks\": " << tasks << ",\n"
      << "  \"deque_items\": " << deque_items << ",\n"
      << "  \"tolerance\": " << tolerance << ",\n  \"legs\": [\n";
  for (const auto& leg : spawn_legs) {
    out << "   {\"workload\": \"" << leg.workload << "\", \"cores\": "
        << leg.cores << ",\n";
    json_stats(out, "heap_ns_per_spawn", leg.heap_spawn_ns);
    out << ",\n";
    json_stats(out, "pooled_ns_per_spawn", leg.pooled_spawn_ns);
    out << ",\n";
    json_stats(out, "heap_ns_per_task", leg.heap_task_ns);
    out << ",\n";
    json_stats(out, "pooled_ns_per_task", leg.pooled_task_ns);
    out << ",\n    \"heap_allocs_per_task\": " << leg.heap_allocs_per_task
        << ", \"pooled_allocs_per_task\": " << leg.pooled_allocs_per_task
        << ",\n    \"pooled_steady_slab_allocs\": "
        << leg.pooled_steady_slab_allocs << ", \"zero_alloc_steady_state\": "
        << (leg.zero_alloc_steady_state ? "true" : "false")
        << ",\n    \"speedup\": " << leg.speedup << ", \"bound\": "
        << leg.bound << ", \"within_bound\": "
        << (leg.within ? "true" : "false") << ", \"alloc_rate_ok\": "
        << (leg.alloc_ok ? "true" : "false") << "},\n";
  }
  out << "   {\"workload\": \"deque-push-pop\",\n";
  json_stats(out, "ns_per_op", push_pop_ns);
  out << "},\n   {\"workload\": \"deque-steal\",\n";
  json_stats(out, "ns_per_steal", steal_ns);
  out << "},\n   {\"workload\": \"deque-grow\",\n";
  json_stats(out, "ns_per_push", grow_ns);
  out << "}\n  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  out.close();
  std::cout << (pass ? "PASS" : "FAIL") << " — wrote " << out_path << "\n";
  return pass ? 0 : 1;
}
