// Overhead guardrail for the lock-order-graph deadlock analysis
// (src/race/lockgraph): the same workload runs under race::Replay with
// check_deadlocks on and off, in both detector modes, and the on-leg
// mean must stay within the off-leg's noise band. This is the contract
// that lets check_deadlocks default to ON — if recording acquire edges
// or maintaining FastTrack's structural fork-join clock ever grows past
// measurement noise, this bench (and its smoke test) is what fails.
//
// Workloads:
//  - spawn-batch: a flat batch of lock-free tasks (bench_spawn's shape).
//    No task ever holds a lock, so record_acquire never fires; what is
//    measured is the pure spawn-path cost of having the graph armed —
//    FastTrack's structural fork-join clock (sp_vc copy/join per task)
//    and SP-bags' per-acquire null checks. This is the "deadlock
//    analysis is free for lock-free programs" half of the contract.
//  - PNN: the real kernel whose locked combine motivated lock modeling;
//    a realistic (low) lock-event rate, so record_acquire's cost shows
//    up at the rate real programs pay it.
// Deliberately NOT a leg: a lock-per-task stress. Recording is O(prior
// events) per acquire (the eager parallelism bitset), so a kernel that
// takes nested locks in every task pays multiples of its (tiny) task
// cost — bounded by LockGraph's kMaxEvents cap, and not the regime the
// on-by-default decision is based on.
//
// On/off reps alternate (off, on, off, on, ...) so clock drift and
// thermal state land on both legs equally. The bound per leg is
//   on_mean <= off_mean * (1 + 3*cv + tolerance),   cv = max leg cv,
// i.e. "within coefficient of variation" with a CLI-tunable slack for
// noisy CI hosts.
//
// Usage: bench_deadlock_overhead [--reps=7] [--tasks=2000]
//          [--pnn-scale=small|tiny] [--tolerance=0.25]
//          [--out=BENCH_deadlock_overhead.json]
//
// Exit status: 0 when every leg is within bound, 1 otherwise. The JSON
// artifact records every leg either way.
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

#ifdef DWS_RACE_DISABLED

int main() {
  std::cout << "bench_deadlock_overhead: built with -DDWS_RACE=OFF; "
               "nothing to measure\n";
  return 0;
}

#else  // DWS_RACE_DISABLED

#include "ab.hpp"
#include "apps/app.hpp"
#include "race/spbags.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace {

using namespace dws;
using bench::json_stats;

Config config_for(race::Mode m) {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = m == race::Mode::kFastTrack ? 4 : 2;
  cfg.pin_threads = false;
  return cfg;
}

std::string mode_tag(race::Mode m) {
  return m == race::Mode::kFastTrack ? "fasttrack" : "spbags";
}

/// Flat batch of `tasks` lock-free tasks (see file comment: measures
/// the spawn-path cost of an armed graph, not record_acquire).
void spawn_batch(rt::Scheduler& sched, long tasks) {
  race::region scope("bench-spawn-batch");
  rt::TaskGroup g;
  for (long i = 0; i < tasks; ++i) {
    sched.spawn(g, [] {
      volatile long spin = 0;
      for (int k = 0; k < 64; ++k) spin = spin + k;
    });
  }
  sched.wait(g);
}

struct Leg {
  std::string workload;
  std::string mode;
  util::Samples off_ms;
  util::Samples on_ms;
  double bound = 0.0;    // allowed on/off mean ratio
  double ratio = 0.0;    // measured on/off mean ratio
  bool within = false;
  bool clean = true;     // deadlock analysis stayed clean on every rep
};

}  // namespace

int main(int argc, char** argv) {
  const util::CliArgs args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 7));
  const long tasks = args.get_int("tasks", 2000);
  const double tolerance = args.get_double("tolerance", 0.25);
  const std::string pnn_scale = args.get_str("pnn-scale", "small");
  const std::string out_path =
      args.get_str("out", "BENCH_deadlock_overhead.json");
  const apps::Scale scale =
      pnn_scale == "tiny" ? apps::Scale::kTiny : apps::Scale::kSmall;

  std::cout << "=== Deadlock-analysis overhead guardrail (reps=" << reps
            << ", tasks=" << tasks << ", pnn-scale=" << pnn_scale
            << ", tolerance=" << tolerance << ") ===\n";

  std::vector<Leg> legs;
  for (race::Mode mode : {race::Mode::kSpBags, race::Mode::kFastTrack}) {
    // One scheduler (and, for PNN, one app) per mode; each timed rep is
    // its own Replay session so on/off differ ONLY in check_deadlocks.
    rt::Scheduler sched(config_for(mode));
    auto pnn = apps::make_app("PNN", scale);
    if (!pnn) {
      std::cerr << "bench_deadlock_overhead: PNN app unavailable\n";
      return 1;
    }

    struct Workload {
      const char* name;
      std::function<void()> body;
    };
    const Workload workloads[] = {
        {"spawn-batch", [&] { spawn_batch(sched, tasks); }},
        {"pnn", [&] { pnn->run(sched); }},
    };

    for (const auto& wl : workloads) {
      Leg leg;
      leg.workload = wl.name;
      leg.mode = mode_tag(mode);
      {  // warm-up (also primes lazily-built app state)
        race::Replay replay(sched, mode, /*check_deadlocks=*/false);
        wl.body();
      }
      auto timed = [&](bool check) {
        util::Stopwatch sw;
        race::Replay replay(sched, mode, check);
        wl.body();
        const auto& dl = replay.deadlocks();  // finish() inside the timing
        const double ms = sw.elapsed_ms();
        if (check && !dl.clean()) leg.clean = false;
        return ms;
      };
      bench::alternate(
          reps, [&] { return timed(false); }, [&] { return timed(true); },
          [&](double off, double on) {
            leg.off_ms.add(off);
            leg.on_ms.add(on);
          });
      leg.bound = bench::ab_bound(leg.on_ms, leg.off_ms, tolerance);
      leg.ratio = leg.off_ms.mean() > 0.0
                      ? leg.on_ms.mean() / leg.off_ms.mean()
                      : 0.0;
      leg.within = leg.ratio <= leg.bound;
      std::cout << leg.mode << "/" << leg.workload
                << ": off " << leg.off_ms.summary() << " ms, on "
                << leg.on_ms.summary() << " ms, ratio " << leg.ratio
                << " (bound " << leg.bound << ") "
                << (leg.within ? "ok" : "EXCEEDED")
                << (leg.clean ? "" : " [analysis NOT clean]") << "\n";
      legs.push_back(std::move(leg));
    }
  }

  bool pass = true;
  for (const auto& leg : legs) pass = pass && leg.within && leg.clean;

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"deadlock_overhead\",\n"
      << "  \"reps\": " << reps << ",\n  \"tasks\": " << tasks << ",\n"
      << "  \"pnn_scale\": \"" << pnn_scale << "\",\n"
      << "  \"tolerance\": " << tolerance << ",\n  \"legs\": [\n";
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto& leg = legs[i];
    out << "   {\"workload\": \"" << leg.workload << "\", \"mode\": \""
        << leg.mode << "\",\n";
    json_stats(out, "off_ms", leg.off_ms);
    out << ",\n";
    json_stats(out, "on_ms", leg.on_ms);
    out << ",\n    \"ratio\": " << leg.ratio << ", \"bound\": " << leg.bound
        << ", \"within_bound\": " << (leg.within ? "true" : "false")
        << ", \"analysis_clean\": " << (leg.clean ? "true" : "false")
        << "}" << (i + 1 < legs.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"pass\": " << (pass ? "true" : "false") << "\n}\n";
  out.close();
  std::cout << (pass ? "PASS" : "FAIL")
            << " — wrote " << out_path << "\n";
  return pass ? 0 : 1;
}

#endif  // DWS_RACE_DISABLED
