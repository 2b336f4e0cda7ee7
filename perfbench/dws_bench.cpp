// dws_bench: the measuring half of the benchmark (run.py builds and drives
// it). One process runs one workload on k = 4 cores and prints a single
// JSON document on stdout:
//
//   dws_bench --workload <solo-cholesky|corun-fft-mergesort|sim-fig4>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Every layer is measured from outside, through public functions only:
// the Table-2 kernels (src/apps), the Scheduler and its counters
// (src/runtime), the core table and deque (src/core, src/runtime), the
// figure mixes (src/harness) and the simulator (src/sim). See README.md
// for the workloads, the metric table and the layer-to-end-to-end map.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "apps/app.hpp"
#include "apps/profiles.hpp"
#include "core/core_table.hpp"
#include "harness/mixes.hpp"
#include "runtime/api.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"
#include "sim/engine.hpp"

namespace {

using namespace dws;
using Clock = std::chrono::steady_clock;

constexpr unsigned kCores = 4;
// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

// Counted-batch sizes per second of --seconds. They are fixed constants,
// not measured at run time, so that a batch is the same work on every
// commit; they were chosen on a 4-vCPU x86 host so that one batch takes
// about --seconds there.
constexpr double kCholeskyRunsPerSecond = 28.0;
constexpr double kFftRunsPerSecond = 20.0;
constexpr double kMergesortRunsPerSecond = 3.0;
constexpr double kFig4PassesPerSecond = 1.6;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Linear-interpolated quantile of `v` (copied, so callers keep order).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += ' ';
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

// ---- Outcome bookkeeping ---------------------------------------------------

/// Operations attempted and failed (kernel runs, verifications folded into
/// the run they check, simulations). Thread-safe.
class Outcome {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why) {
    ++failed_;
    std::lock_guard<std::mutex> lock(m_);
    if (reasons_.size() < 20) reasons_.push_back(why);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(m_);
    return reasons_;
  }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex m_;
  std::vector<std::string> reasons_;  // guarded by m_
};

// ---- Spans (traced runs only) ----------------------------------------------

/// One span recorded by the benchmark around a call into a layer. Counts
/// are the layer's public counters diffed across the span.
struct Span {
  std::string name;
  std::string parent;
  double start_us = 0.0;
  double end_us = 0.0;
  std::vector<std::pair<std::string, double>> counts;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }
  void add(Span s) {
    std::lock_guard<std::mutex> lock(m_);
    spans_.push_back(std::move(s));
  }
  [[nodiscard]] std::string to_json() const {
    std::lock_guard<std::mutex> lock(m_);
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? "," : "") << "{\"name\":\"" << json_escape(s.name)
         << "\",\"parent\":\"" << json_escape(s.parent)
         << "\",\"start_us\":" << json_num(s.start_us)
         << ",\"end_us\":" << json_num(s.end_us) << ",\"counts\":{";
      for (std::size_t j = 0; j < s.counts.size(); ++j) {
        os << (j ? "," : "") << '"' << s.counts[j].first
           << "\":" << json_num(s.counts[j].second);
      }
      os << "}}";
    }
    os << ']';
    return os.str();
  }

 private:
  Clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

/// Runs `fn` and records it as a span when `tracer` is set.
template <typename F>
void traced(Tracer* tracer, const std::string& name, const std::string& parent,
            F&& fn) {
  const double t0 = tracer != nullptr ? tracer->now_us() : 0.0;
  fn();
  if (tracer != nullptr) tracer->add({name, parent, t0, tracer->now_us(), {}});
}

// ---- Runtime counters ------------------------------------------------------

/// The Scheduler's public counters that the per-layer metrics read.
enum Counter {
  kTasks, kStealAttempts, kSteals, kSleeps, kEvictions, kTicks, kClaims,
  kReclaims, kPooledSpawns, kHeapSpawns, kExternalSpawns, kLocalFrees,
  kRemoteFrees, kNumCounters
};
constexpr const char* kCounterNames[kNumCounters] = {
    "tasks",  "steal_attempts", "steals",       "sleeps",
    "evictions", "ticks",       "claims",       "reclaims",
    "pooled_spawns", "heap_spawns", "external_spawns", "local_frees",
    "remote_frees"};
using RuntimeCounts = std::array<double, kNumCounters>;

RuntimeCounts snapshot(const rt::Scheduler& s) {
  const rt::SchedulerStats st = s.stats();
  const rt::TaskAllocStats al = s.alloc_stats();
  const std::uint64_t v[kNumCounters] = {
      st.totals.tasks_executed, st.totals.steal_attempts, st.totals.steals,
      st.totals.sleeps,         st.totals.evictions,      st.coordinator_ticks,
      st.cores_claimed,         st.cores_reclaimed,       al.pooled_spawns,
      al.heap_spawns,           al.external_spawns,       al.local_frees,
      al.remote_frees};
  RuntimeCounts c{};
  for (int i = 0; i < kNumCounters; ++i) c[i] = static_cast<double>(v[i]);
  return c;
}

// ---- Real-runtime workloads ------------------------------------------------

/// One co-running program: a Table-2 kernel and the DWS scheduler it runs
/// on. Runs must go through run_checked so failures are counted.
struct Program {
  std::string name;
  std::unique_ptr<apps::App> app;
  std::unique_ptr<rt::Scheduler> sched;

  bool run_checked(Outcome& out) {
    out.attempt();
    try {
      app->run(*sched);
      return true;
    } catch (const std::exception& e) {
      out.fail(name + " run threw: " + e.what());
    } catch (...) {
      out.fail(name + " run threw a non-std exception");
    }
    return false;
  }
  /// Verification of the most recent run; it is part of that run's
  /// operation, so only a failure is counted.
  void verify_checked(Outcome& out, const char* when) {
    std::string why;
    try {
      why = app->verify();
    } catch (const std::exception& e) {
      why = std::string("verify threw: ") + e.what();
    }
    if (!why.empty()) out.fail(name + " " + when + ": " + why);
  }
};

/// The programs of one real-runtime workload and the table they share.
struct RealSetup {
  std::unique_ptr<CoreTableLocal> table;  // declared first: outlives scheds
  std::vector<Program> programs;
};

struct RealSpec {
  std::vector<std::string> kernels;  // Table-2 names, first = foreground
  std::vector<double> runs_per_second;
};

std::unique_ptr<RealSetup> make_real_setup(const RealSpec& spec,
                                           std::uint64_t seed, Outcome& out) {
  auto setup = std::make_unique<RealSetup>();
  RealSetup& s = *setup;
  const auto m = static_cast<unsigned>(spec.kernels.size());
  if (m > 1) s.table = std::make_unique<CoreTableLocal>(kCores, m);
  for (unsigned i = 0; i < m; ++i) {
    Program p;
    p.name = spec.kernels[i];
    p.app = apps::make_app(p.name, apps::Scale::kMedium, seed + i);
    Config cfg;
    cfg.mode = SchedMode::kDws;
    cfg.num_cores = kCores;
    cfg.num_programs = m;
    cfg.seed = seed * 0x9E3779B97F4A7C15ull + i;
    p.sched = std::make_unique<rt::Scheduler>(
        cfg, s.table ? &s.table->table() : nullptr);
    s.programs.push_back(std::move(p));
  }
  // One warm-up run per program, concurrently when co-running, then verify.
  std::vector<std::thread> threads;
  for (Program& p : s.programs) {
    threads.emplace_back([&p, &out] {
      if (p.run_checked(out)) p.verify_checked(out, "after warm-up");
    });
  }
  for (std::thread& t : threads) t.join();
  return setup;
}

struct BatchResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<std::vector<double>> run_ms;  // counted runs, per program
  RuntimeCounts counts{};                   // traced batches only
  double runs = 0.0;                        // every run, counted or not
};

/// Closed loop: one driver thread per program starts the program's next
/// run only after its previous one finished. A program that completes its
/// counted runs keeps running (uncounted) until every program has, so the
/// co-run mix holds for the whole measured window.
BatchResult run_batch(RealSetup& setup, const std::vector<unsigned>& counted,
                      Outcome& out, Tracer* tracer) {
  const std::size_t n = setup.programs.size();
  BatchResult r;
  r.run_ms.resize(n);
  std::vector<RuntimeCounts> counts(n, RuntimeCounts{});
  std::vector<unsigned> runs(n, 0);
  std::atomic<bool> go{false};
  std::atomic<unsigned> finished{0};
  Clock::time_point t0;  // written before `go` is released
  double cpu0 = 0.0;

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      Program& p = setup.programs[i];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (unsigned k = 0;; ++k) {
        if (k >= counted[i] &&
            finished.load(std::memory_order_acquire) == n) {
          break;
        }
        RuntimeCounts before{};
        double span_t0 = 0.0;
        if (tracer != nullptr) {
          before = snapshot(*p.sched);
          span_t0 = tracer->now_us();
        }
        const auto ts = Clock::now();
        const bool ok = p.run_checked(out);
        const double ms = seconds_since(ts) * 1e3;
        if (tracer != nullptr) {
          const RuntimeCounts after = snapshot(*p.sched);
          Span span{p.name + ".run", "batch", span_t0, tracer->now_us(), {}};
          for (int c = 0; c < kNumCounters; ++c) {
            counts[i][c] += after[c] - before[c];
            span.counts.push_back({kCounterNames[c], after[c] - before[c]});
          }
          tracer->add(std::move(span));
        }
        ++runs[i];
        if (k < counted[i] && ok) r.run_ms[i].push_back(ms);
        if (k + 1 == counted[i] &&
            finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
          r.wall_s = seconds_since(t0);
          r.cpu_s = process_cpu_s() - cpu0;
        }
      }
    });
  }
  cpu0 = process_cpu_s();
  t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < n; ++i) {
    for (int c = 0; c < kNumCounters; ++c) r.counts[c] += counts[i][c];
    r.runs += runs[i];
  }
  return r;
}

// ---- Simulator workloads ---------------------------------------------------

/// Digest of one DWS mix simulation: the exact counts and Eq. 2 means that
/// two same-seed simulations must reproduce bit for bit.
struct MixDigest {
  std::vector<double> normalized;  // per program slot
  std::uint64_t tasks = 0, steals = 0, sleeps = 0, claims = 0, reclaims = 0;
  bool hit_time_limit = false;
  bool operator==(const MixDigest&) const = default;
};

/// The simulated side of a workload: DWS runs of some Table-2 mixes (a
/// mix of one id is a solo run) on the default 16-core SimParams, each
/// program's Eq. 2 mean normalized by its CLASSIC solo baseline.
class SimSide {
 public:
  SimSide(std::vector<std::vector<unsigned>> mixes, std::uint64_t seed,
          Outcome& out)
      : mixes_(std::move(mixes)), profiles_(apps::make_all_sim_profiles()) {
    params_.seed = 0xD5EEDull + seed;
    for (const auto& mix : mixes_) {
      for (unsigned id : mix) {
        if (baseline_us_.count(id) != 0) continue;
        out.attempt();
        const sim::SimResult r =
            sim::simulate_solo(params_, spec(id, SchedMode::kClassic));
        if (r.hit_time_limit) {
          out.fail(std::string("CLASSIC baseline of ") +
                   harness::app_name(id) + " hit max_sim_time_us");
        }
        baseline_us_[id] = r.programs[0].mean_run_time_us;
      }
    }
  }

  [[nodiscard]] std::size_t size() const { return mixes_.size(); }

  /// Simulate mix `i` under DWS; `host_ms` receives the host time spent.
  MixDigest simulate(std::size_t i, Outcome& out, double& host_ms) const {
    std::vector<sim::SimProgramSpec> specs;
    for (unsigned id : mixes_[i]) specs.push_back(spec(id, SchedMode::kDws));
    out.attempt();
    const auto t0 = Clock::now();
    sim::SimEngine engine(params_, std::move(specs));
    const sim::SimResult r = engine.run();
    host_ms = seconds_since(t0) * 1e3;
    MixDigest d;
    d.hit_time_limit = r.hit_time_limit;
    if (r.hit_time_limit) {
      out.fail("DWS mix " + label(i) + " hit max_sim_time_us");
    }
    for (std::size_t j = 0; j < r.programs.size(); ++j) {
      const sim::ProgramResult& p = r.programs[j];
      d.normalized.push_back(p.mean_run_time_us /
                             baseline_us_.at(mixes_[i][j]));
      d.tasks += p.tasks_executed;
      d.steals += p.steals;
      d.sleeps += p.sleeps;
      d.claims += p.cores_claimed;
      d.reclaims += p.cores_reclaimed;
    }
    return d;
  }

  [[nodiscard]] std::string label(std::size_t i) const {
    std::string s = "(";
    for (std::size_t j = 0; j < mixes_[i].size(); ++j) {
      s += (j ? ", " : "") + std::to_string(mixes_[i][j]);
    }
    return s + ")";
  }

 private:
  [[nodiscard]] sim::SimProgramSpec spec(unsigned id, SchedMode mode) const {
    const apps::SimAppProfile& prof = profiles_.at(id - 1);
    sim::SimProgramSpec s;
    s.name = prof.name;
    s.mode = mode;
    s.dag = &prof.dag;
    s.target_runs = 4;  // the harness's Fig. 3 repetition count
    s.default_mem_intensity = prof.mem_intensity;
    return s;
  }

  std::vector<std::vector<unsigned>> mixes_;
  std::vector<apps::SimAppProfile> profiles_;
  sim::SimParams params_;
  std::map<unsigned, double> baseline_us_;
};

/// Totals over one pass of every mix of a SimSide.
struct SimPass {
  std::vector<MixDigest> mixes;
  std::vector<double> mix_host_ms;

  [[nodiscard]] double norm_geomean() const {
    double log_sum = 0.0;
    std::size_t n = 0;
    for (const MixDigest& d : mixes) {
      for (double v : d.normalized) {
        log_sum += std::log(v);
        ++n;
      }
    }
    return n ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
  }
  [[nodiscard]] MixDigest totals() const {
    MixDigest t;
    for (const MixDigest& d : mixes) {
      t.tasks += d.tasks;
      t.steals += d.steals;
      t.sleeps += d.sleeps;
      t.claims += d.claims;
      t.reclaims += d.reclaims;
    }
    return t;
  }
};

SimPass simulate_pass(const SimSide& side, Outcome& out, Tracer* tracer,
                      const std::string& parent) {
  SimPass p;
  for (std::size_t i = 0; i < side.size(); ++i) {
    double ms = 0.0;
    const double t0 = tracer != nullptr ? tracer->now_us() : 0.0;
    p.mixes.push_back(side.simulate(i, out, ms));
    if (tracer != nullptr) {
      const MixDigest& d = p.mixes.back();
      tracer->add({"sim.mix" + side.label(i), parent, t0, tracer->now_us(),
                   {{"tasks", double(d.tasks)},
                    {"steals", double(d.steals)},
                    {"sleeps", double(d.sleeps)},
                    {"claims", double(d.claims)},
                    {"reclaims", double(d.reclaims)}}});
    }
    p.mix_host_ms.push_back(ms);
  }
  return p;
}

// ---- Layer probes (traced runs) --------------------------------------------

template <typename F>
double median_of(int reps, F&& sample) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(sample());
  return quantile(std::move(v), 0.5);
}

void wait_all_asleep(rt::Scheduler& s) {
  const auto t0 = Clock::now();
  while (s.sleeping_workers() < s.num_workers() && seconds_since(t0) < 1.0) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

struct WakeProbe {
  std::vector<double> wake_us, fanout_us;
};

/// Wake: external Scheduler::run on a program whose workers all sleep, to
/// the start of the task body. Fan-out: until all four leaves of a 4-way
/// parallel_for have started; each leaf busy-waits 200 us, so a program
/// that wakes no helper shows 3 x 200 us plus the first wake.
WakeProbe probe_wake(std::uint64_t seed, int samples) {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = kCores;
  cfg.seed = seed;
  rt::Scheduler s(cfg);
  WakeProbe p;
  for (int i = 0; i < samples; ++i) {
    wait_all_asleep(s);
    Clock::time_point body;
    const auto t0 = Clock::now();
    s.run([&body] { body = Clock::now(); });
    p.wake_us.push_back(
        std::chrono::duration<double, std::micro>(body - t0).count());

    wait_all_asleep(s);
    std::vector<Clock::time_point> started(4);
    const auto t1 = Clock::now();
    rt::parallel_for(s, 0, 4, 1, [&started](std::int64_t b, std::int64_t e) {
      for (std::int64_t j = b; j < e; ++j) {
        started[static_cast<std::size_t>(j)] = Clock::now();
        const auto spin = Clock::now();
        while (Clock::now() - spin < std::chrono::microseconds(200)) {
        }
      }
    });
    const auto last = *std::max_element(started.begin(), started.end());
    p.fanout_us.push_back(
        std::chrono::duration<double, std::micro>(last - t1).count());
  }
  return p;
}

/// Scheduler::spawn + wait of empty tasks from inside a worker task.
double probe_spawn_ns(std::uint64_t seed) {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = kCores;
  cfg.seed = seed;
  rt::Scheduler s(cfg);
  constexpr int kTasks = 100000;
  return median_of(5, [&s] {
    double ns = 0.0;
    s.run([&s, &ns] {
      rt::TaskGroup g;
      const auto t0 = Clock::now();
      for (int i = 0; i < kTasks; ++i) s.spawn(g, [] {});
      s.wait(g);
      ns = seconds_since(t0) * 1e9 / kTasks;
    });
    return ns;
  });
}

struct DequeProbe {
  double push_pop_ns = 0.0, steal_ns = 0.0;
};

/// A standalone ChaseLevDeque on one thread: owner push+pop pairs, and
/// uncontended steals of pushed items.
DequeProbe probe_deque(Outcome& out) {
  constexpr int kBatch = 1024, kRounds = 512;
  rt::ChaseLevDeque<std::uintptr_t> dq;
  std::uintptr_t sink = 0;
  DequeProbe p;
  p.push_pop_ns = median_of(5, [&] {
    const auto t0 = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kBatch; ++i) dq.push(std::uintptr_t(i) + 1);
      for (int i = 0; i < kBatch; ++i) sink += dq.pop().value_or(0);
    }
    return seconds_since(t0) * 1e9 / (kRounds * kBatch);
  });
  p.steal_ns = median_of(5, [&] {
    double steal_s = 0.0;
    for (int r = 0; r < kRounds; ++r) {
      for (int i = 0; i < kBatch; ++i) dq.push(std::uintptr_t(i) + 1);
      const auto t0 = Clock::now();
      for (int i = 0; i < kBatch; ++i) sink += dq.steal().value_or(0);
      steal_s += seconds_since(t0);
    }
    return steal_s * 1e9 / (kRounds * kBatch);
  });
  // Each round pushes 1..kBatch and takes every item back.
  const std::uintptr_t expect =
      std::uintptr_t(10) * kRounds * (kBatch * (kBatch + 1) / 2);
  out.attempt();
  if (sink != expect) out.fail("deque probe lost or duplicated items");
  return p;
}

/// try_claim + release pairs on a standalone two-program table.
double probe_core_table_ns(Outcome& out) {
  CoreTableLocal local(kCores, 2);
  CoreTable& t = local.table();
  const ProgramId pid = t.register_program();
  constexpr int kPairs = 1 << 20;
  std::uint64_t ok = 0;
  const double ns = median_of(5, [&] {
    const auto t0 = Clock::now();
    for (int i = 0; i < kPairs; ++i) {
      const CoreId c = static_cast<CoreId>(i) % kCores;
      ok += t.try_claim(c, pid) ? 1 : 0;
      ok += t.release(c, pid) ? 1 : 0;
    }
    return seconds_since(t0) * 1e9 / kPairs;
  });
  out.attempt();
  if (ok != std::uint64_t(2) * 5 * kPairs) {
    out.fail("core-table probe: a claim or release on a free core failed");
  }
  return ns;
}

// ---- Reporting -------------------------------------------------------------

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  std::vector<std::pair<std::string, double>> samples;
  void put(const std::string& name, double v, const std::string& unit) {
    items.push_back({name, {v, unit}});
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = v == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

unsigned batch_size(double seconds, double per_second) {
  return std::max(1u, static_cast<unsigned>(std::lround(seconds * per_second)));
}

// ---- Workload drivers ------------------------------------------------------

/// Checks that a SimSide reproduces `ref` with the same seed and differs
/// from it with another seed.
void check_sim_determinism(const std::vector<std::vector<unsigned>>& mixes,
                           std::uint64_t seed, const SimPass& ref,
                           Outcome& out, Tracer* tracer) {
  Outcome scratch;  // the re-simulations are checks, not workload operations
  SimPass same, other;
  traced(tracer, "determinism.same_seed", "", [&] {
    same = simulate_pass(SimSide(mixes, seed, scratch), scratch, tracer,
                         "determinism.same_seed");
  });
  traced(tracer, "determinism.other_seed", "", [&] {
    other = simulate_pass(SimSide(mixes, seed + 1, scratch), scratch, tracer,
                          "determinism.other_seed");
  });
  out.attempt();
  if (same.mixes != ref.mixes) {
    out.fail("simulation is not deterministic: same seed, different result");
  }
  out.attempt();
  if (other.mixes == ref.mixes) {
    out.fail("simulation ignores its seed: the determinism check is vacuous");
  }
}

void real_workload(const Args& a, const RealSpec& spec, Outcome& out,
                   Metrics& m, Tracer* tracer) {
  const bool solo = spec.kernels.size() == 1;
  std::vector<unsigned> counted;
  for (double r : spec.runs_per_second) {
    counted.push_back(batch_size(a.seconds, r));
  }

  // Set-up: inputs, table, schedulers, one verified warm-up run. Repeated
  // so setup_s is a median; the last set-up is the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<RealSetup> setup;
  for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
    setup.reset();  // tear the previous one down outside the timing
    const auto t0 = Clock::now();
    setup = make_real_setup(spec, a.seed, out);
    setup_s.push_back(seconds_since(t0));
  }

  const BatchResult plain = run_batch(*setup, counted, out, nullptr);
  BatchResult batch = plain;
  if (a.trace) {
    traced(tracer, "batch", "",
           [&] { batch = run_batch(*setup, counted, out, tracer); });
  }
  for (Program& p : setup->programs) {
    p.verify_checked(out, "after the last run");
  }

  // The workload's simulated counterpart: the same kernels as a DWS solo
  // run or mix on the simulated 16-core machine.
  std::vector<std::vector<unsigned>> mix(1);
  for (const std::string& k : spec.kernels) {
    for (unsigned id = 1; id <= apps::kNumApps; ++id) {
      if (k == harness::app_name(id)) mix[0].push_back(id);
    }
  }
  const SimSide side(mix, a.seed, out);
  SimPass sim;
  traced(tracer, "sim", "",
         [&] { sim = simulate_pass(side, out, tracer, "sim"); });
  if (a.trace) check_sim_determinism(mix, a.seed, sim, out, tracer);

  const std::vector<double>& fg = plain.run_ms.front();
  const std::vector<double>& bg = plain.run_ms.back();
  if (!a.trace) {
    m.put("setup_s", quantile(setup_s, 0.5), "s");
    m.put("wall_s", plain.wall_s, "s");
    m.put("run_ms_p50", quantile(fg, 0.5), "ms");
    m.put("run_ms_p90", quantile(fg, 0.9), "ms");
    m.put("co_run_ms_p50", quantile(bg, 0.5), "ms");
    m.put("cpu_s", plain.cpu_s, "s");
    m.put("sim_norm_geomean", sim.norm_geomean(), "ratio");
    m.samples = {{"setup", double(setup_s.size())},
                 {"run_ms", double(fg.size())},
                 {"co_run_ms", double(bg.size())}};
    return;
  }

  // ---- Traced run: per-layer metrics ----
  const RuntimeCounts& c = batch.counts;
  const double probes_t0 = tracer->now_us();
  std::vector<double> serial_ms;
  traced(tracer, "apps.serial", "probes", [&] {
    for (Program& p : setup->programs) {
      serial_ms.push_back(median_of(3, [&p] {
        const auto t0 = Clock::now();
        p.app->run_serial();
        return seconds_since(t0) * 1e3;
      }));
      p.verify_checked(out, "after run_serial");
    }
  });

  // CLASSIC reference: the foreground kernel alone on its own scheduler.
  std::vector<double> classic_ms;
  traced(tracer, "reference.classic", "probes", [&] {
    Config cfg;
    cfg.mode = SchedMode::kClassic;
    cfg.num_cores = kCores;
    const std::string& name = spec.kernels.front();
    Program ref{name, apps::make_app(name, apps::Scale::kMedium, a.seed),
                std::make_unique<rt::Scheduler>(cfg)};
    for (unsigned i = 0; i < 22; ++i) {
      const auto t0 = Clock::now();
      if (ref.run_checked(out) && i >= 2) {
        classic_ms.push_back(seconds_since(t0) * 1e3);
      }
    }
    ref.verify_checked(out, "CLASSIC reference");
  });

  WakeProbe wake;
  traced(tracer, "probe.wake", "probes",
         [&] { wake = probe_wake(a.seed, 200); });
  double spawn_ns = 0.0;
  traced(tracer, "probe.spawn", "probes",
         [&] { spawn_ns = probe_spawn_ns(a.seed); });
  DequeProbe dq;
  traced(tracer, "probe.deque", "probes", [&] { dq = probe_deque(out); });
  double table_ns = 0.0;
  traced(tracer, "probe.core_table", "probes",
         [&] { table_ns = probe_core_table_ns(out); });
  tracer->add({"probes", "", probes_t0, tracer->now_us(), {}});

  if (solo && (c[kReclaims] != 0 || c[kEvictions] != 0)) {
    out.fail("a solo DWS program reclaimed or was evicted from a core");
  }

  const double runs = batch.runs;
  m.put("apps.serial_ms", serial_ms.front(), "ms");
  m.put("apps.co_serial_ms", serial_ms.back(), "ms");
  m.put("worker.tasks_per_run", ratio(c[kTasks], runs), "count");
  m.put("worker.steal_attempts_per_run", ratio(c[kStealAttempts], runs),
        "count");
  m.put("worker.steal_success", ratio(c[kSteals], c[kStealAttempts]), "ratio");
  m.put("worker.sleeps_per_run", ratio(c[kSleeps], runs), "count");
  m.put("worker.evictions_per_run", ratio(c[kEvictions], runs), "count");
  m.put("pool.heap_spawn_frac",
        ratio(c[kHeapSpawns] + c[kExternalSpawns],
              c[kPooledSpawns] + c[kHeapSpawns] + c[kExternalSpawns]), "ratio");
  m.put("pool.remote_free_frac",
        ratio(c[kRemoteFrees], c[kLocalFrees] + c[kRemoteFrees]), "ratio");
  m.put("spawn.ns_per_task", spawn_ns, "ns");
  m.put("deque.push_pop_ns", dq.push_pop_ns, "ns");
  m.put("deque.steal_ns", dq.steal_ns, "ns");
  m.put("coordinator.ticks_per_run", ratio(c[kTicks], runs), "count");
  m.put("coordinator.claims_per_run", ratio(c[kClaims], runs), "count");
  m.put("coordinator.reclaims_per_run", ratio(c[kReclaims], runs), "count");
  m.put("core_table.claim_release_ns", table_ns, "ns");
  m.put("coordinator.wake_us_p50", quantile(wake.wake_us, 0.5), "us");
  m.put("coordinator.wake_us_p90", quantile(wake.wake_us, 0.9), "us");
  m.put("coordinator.fanout_us_p50", quantile(wake.fanout_us, 0.5), "us");
  m.put("reference.classic_run_ms_p50", quantile(classic_ms, 0.5), "ms");
  const MixDigest t = sim.totals();
  const double host_ms =
      std::accumulate(sim.mix_host_ms.begin(), sim.mix_host_ms.end(), 0.0);
  m.put("sim.host_us_per_task", ratio(host_ms * 1e3, double(t.tasks)), "us");
  m.put("sim.steals", double(t.steals), "count");
  m.put("sim.sleeps", double(t.sleeps), "count");
  m.put("sim.claims", double(t.claims), "count");
  m.put("sim.reclaims", double(t.reclaims), "count");
  m.put("trace.overhead_frac", batch.wall_s / plain.wall_s - 1.0, "ratio");
  m.samples = {{"traced_runs", runs},
               {"wake", double(wake.wake_us.size())},
               {"fanout", double(wake.fanout_us.size())},
               {"classic_ms", double(classic_ms.size())}};
}

void sim_workload(const Args& a, Outcome& out, Metrics& m, Tracer* tracer) {
  std::vector<std::vector<unsigned>> mixes;
  for (const auto& [i, j] : harness::kFigureMixes) mixes.push_back({i, j});
  const unsigned passes = batch_size(a.seconds, kFig4PassesPerSecond);

  // Set-up: DAG profiles, CLASSIC solo baselines, one verified warm-up
  // simulation.
  std::vector<double> setup_s;
  std::unique_ptr<SimSide> side;
  for (int i = 0; i < (a.trace ? 1 : kSetupReps); ++i) {
    const auto t0 = Clock::now();
    side = std::make_unique<SimSide>(mixes, a.seed, out);
    double ms = 0.0;
    side->simulate(0, out, ms);
    setup_s.push_back(seconds_since(t0));
  }

  // Counted batch: whole passes over the eight mixes. Every pass must
  // reproduce the first one exactly (same seed, deterministic engine).
  auto batch = [&](Tracer* tr, std::vector<double>& mix_ms, double& wall_s,
                   double& cpu_s) {
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    SimPass first;
    for (unsigned p = 0; p < passes; ++p) {
      SimPass pass = simulate_pass(*side, out, tr, "batch");
      mix_ms.insert(mix_ms.end(), pass.mix_host_ms.begin(),
                    pass.mix_host_ms.end());
      if (p == 0) {
        first = std::move(pass);
      } else if (!(pass.mixes == first.mixes)) {
        out.fail("pass " + std::to_string(p) + " differs from pass 0");
      }
    }
    wall_s = seconds_since(t0);
    cpu_s = process_cpu_s() - cpu0;
    return first;
  };
  std::vector<double> mix_ms, traced_ms;
  double wall_s = 0.0, cpu_s = 0.0, traced_wall = 0.0, traced_cpu = 0.0;
  const SimPass first = batch(nullptr, mix_ms, wall_s, cpu_s);

  if (!a.trace) {
    m.put("setup_s", quantile(setup_s, 0.5), "s");
    m.put("wall_s", wall_s, "s");
    m.put("run_ms_p50", quantile(mix_ms, 0.5), "ms");
    m.put("run_ms_p90", quantile(mix_ms, 0.9), "ms");
    m.put("co_run_ms_p50", quantile(mix_ms, 0.5), "ms");
    m.put("cpu_s", cpu_s, "s");
    m.put("sim_norm_geomean", first.norm_geomean(), "ratio");
    m.samples = {{"setup", double(setup_s.size())},
                 {"run_ms", double(mix_ms.size())},
                 {"co_run_ms", double(mix_ms.size())}};
    return;
  }

  SimPass traced_first;
  traced(tracer, "batch", "", [&] {
    traced_first = batch(tracer, traced_ms, traced_wall, traced_cpu);
  });
  check_sim_determinism(mixes, a.seed, traced_first, out, tracer);
  double table_ns = 0.0;
  traced(tracer, "probe.core_table", "",
         [&] { table_ns = probe_core_table_ns(out); });

  // This workload runs no runtime thread and no real kernel: the runtime
  // layers read 0 here, and the shared core table and the simulator carry
  // the per-layer numbers.
  for (const auto& [name, unit] : std::initializer_list<
           std::pair<const char*, const char*>>{
           {"apps.serial_ms", "ms"},
           {"apps.co_serial_ms", "ms"},
           {"worker.tasks_per_run", "count"},
           {"worker.steal_attempts_per_run", "count"},
           {"worker.steal_success", "ratio"},
           {"worker.sleeps_per_run", "count"},
           {"worker.evictions_per_run", "count"},
           {"pool.heap_spawn_frac", "ratio"},
           {"pool.remote_free_frac", "ratio"},
           {"spawn.ns_per_task", "ns"},
           {"deque.push_pop_ns", "ns"},
           {"deque.steal_ns", "ns"},
           {"coordinator.ticks_per_run", "count"},
           {"coordinator.claims_per_run", "count"},
           {"coordinator.reclaims_per_run", "count"}}) {
    m.put(name, 0.0, unit);
  }
  m.put("core_table.claim_release_ns", table_ns, "ns");
  m.put("coordinator.wake_us_p50", 0.0, "us");
  m.put("coordinator.wake_us_p90", 0.0, "us");
  m.put("coordinator.fanout_us_p50", 0.0, "us");
  m.put("reference.classic_run_ms_p50", 0.0, "ms");
  const MixDigest t = traced_first.totals();
  const double host_ms =
      std::accumulate(traced_ms.begin(), traced_ms.end(), 0.0);
  m.put("sim.host_us_per_task",
        ratio(host_ms * 1e3, double(t.tasks) * passes), "us");
  m.put("sim.steals", double(t.steals), "count");
  m.put("sim.sleeps", double(t.sleeps), "count");
  m.put("sim.claims", double(t.claims), "count");
  m.put("sim.reclaims", double(t.reclaims), "count");
  m.put("trace.overhead_frac", traced_wall / wall_s - 1.0, "ratio");
  m.samples = {{"traced_simulations", double(traced_ms.size())}};
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: dws_bench --workload <solo-cholesky|"
                 "corun-fft-mergesort|sim-fig4> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  const auto epoch = Clock::now();
  Tracer tracer(epoch);
  Tracer* tr = a.trace ? &tracer : nullptr;
  Outcome out;
  Metrics m;
  try {
    if (a.workload == "solo-cholesky") {
      real_workload(a, {{"Cholesky"}, {kCholeskyRunsPerSecond}}, out, m, tr);
    } else if (a.workload == "corun-fft-mergesort") {
      real_workload(a,
                    {{"FFT", "Mergesort"},
                     {kFftRunsPerSecond, kMergesortRunsPerSecond}},
                    out, m, tr);
    } else if (a.workload == "sim-fig4") {
      sim_workload(a, out, m, tr);
    } else {
      std::cerr << "unknown workload " << a.workload << "\n";
      return 2;
    }
  } catch (const std::exception& e) {
    out.fail(std::string("workload aborted: ") + e.what());
  }

  std::ostringstream os;
  os << "{\"workload\":\"" << json_escape(a.workload)
     << "\",\"seed\":" << a.seed << ",\"seconds\":" << json_num(a.seconds)
     << ",\"trace\":" << (a.trace ? 1 : 0)
     << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"cpu_model\":\"" << json_escape(cpu_model())
     << "\",\"compiler\":\"" << DWS_BENCH_COMPILER
     << "\",\"build_type\":\"" << DWS_BENCH_BUILD_TYPE
     << "\",\"dws_race\":" << DWS_BENCH_RACE << ",\"k\":" << kCores
     << "},\"attempted\":" << out.attempted() << ",\"failed\":" << out.failed()
     << ",\"failures\":[";
  const std::vector<std::string> reasons = out.reasons();
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    os << (i ? "," : "") << '"' << json_escape(reasons[i]) << '"';
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < m.items.size(); ++i) {
    os << (i ? "," : "") << '"' << m.items[i].first
       << "\":{\"value\":" << json_num(m.items[i].second.first)
       << ",\"unit\":\"" << m.items[i].second.second << "\"}";
  }
  os << "},\"samples\":{";
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    os << (i ? "," : "") << '"' << m.samples[i].first
       << "\":" << json_num(m.samples[i].second);
  }
  os << "},\"spans\":" << tracer.to_json() << "}\n";
  std::cout << os.str() << std::flush;
  return out.failed() == 0 ? 0 : 1;
}
