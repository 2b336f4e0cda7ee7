// A worker thread: one per (program, core), affiliated permanently with
// its core (§3.1). Runs Algorithm 1 (§3.2) with the mode's StealPolicy,
// participates in the sleep/wake protocol, and maintains owner-written
// statistics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/counters.hpp"
#include "core/steal_policy.hpp"
#include "core/topology.hpp"
#include "core/types.hpp"
#include "core/victim_order.hpp"
#include "runtime/deque.hpp"
#include "runtime/task.hpp"
#include "runtime/task_pool.hpp"
#include "util/layout.hpp"
#include "util/rng.hpp"

namespace dws::rt {

class Scheduler;

/// A worker's live counters: the shared vocabulary (core/counters.hpp)
/// plus the runtime-only ones, written by the worker thread alone and
/// read racily by Scheduler::stats(). Exact totals are only guaranteed
/// after the worker thread joined or the scheduler quiesced.
///
/// The struct is cache-line aligned (and therefore padded to a line
/// multiple) so the counters — bumped on every task execution and steal
/// attempt — never share a line with whatever neighbouring Worker field a
/// *different* thread writes; layout_audit tracks the concrete offsets.
/// The counters packing two lines among themselves is deliberate: they
/// have a single writer, so there is no destructive interference to
/// stride away, only the owner's own locality to keep.
struct alignas(layout::kCacheLineBytes) LiveWorkerStats
    : WorkerEvents<RelaxedCounter> {
  /// Victim probes by the victim's DistanceTier. Runtime-only: one steal
  /// attempt is a sweep of up to k-1 probes across several tiers.
  DWS_OWNED_BY(worker) RelaxedCounter probes_by_tier[kNumDistanceTiers];
  /// Spawns that fell back to the heap; reported by alloc_stats().
  DWS_OWNED_BY(worker) RelaxedCounter heap_spawns;
};

/// A snapshot of one worker's counters, or their sum over workers.
struct WorkerStats : WorkerCounters {
  /// Once quiesced, sums to between steal_attempts and (k-1) times it:
  /// a sweep probes at least one and at most every other worker.
  std::uint64_t probes_by_tier[kNumDistanceTiers] = {};

  /// Add a live block (a relaxed snapshot of it) or another snapshot.
  template <typename Stats>
  WorkerStats& operator+=(const Stats& o) {
    WorkerCounters::operator+=(o);
    for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
      probes_by_tier[t] += o.probes_by_tier[t];
    }
    return *this;
  }
};

class Worker {
 public:
  enum class State : int {
    kActive = 0,    ///< running the Algorithm-1 loop
    kSleeping = 1,  ///< released its core; wakeable by the coordinator
    kParked = 2,    ///< EP worker outside the home partition; never woken
  };

  Worker(Scheduler& sched, unsigned id);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker();

  /// Launch the OS thread. Called once by the scheduler.
  void start();
  /// Join the OS thread (the scheduler has already signalled shutdown).
  void join();

  /// Worker id == core id this worker is affiliated with.
  [[nodiscard]] unsigned id() const noexcept { return id_; }

  [[nodiscard]] State state() const noexcept {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  /// Coordinator-side wake. Returns true iff the worker was sleeping and
  /// has now been signalled (the caller must already have secured the
  /// worker's core in the allocation table for DWS). A successful wake
  /// re-arms the scheduler's demand gate before signalling.
  bool wake() noexcept;

  /// Wake the worker for shutdown regardless of state.
  void notify_shutdown() noexcept;

  [[nodiscard]] ChaseLevDeque<TaskBase*>& deque() noexcept { return deque_; }
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return deque_.size_approx();
  }
  /// A relaxed snapshot of this worker's counters.
  [[nodiscard]] WorkerStats stats() const noexcept {
    WorkerStats s;
    s += stats_;
    return s;
  }

  /// This worker's task-storage pool (allocation is worker-thread-only;
  /// release may come from any thread via TaskSlabPool::release).
  [[nodiscard]] TaskSlabPool& pool() noexcept { return pool_; }

  /// One help-first scheduling step on behalf of a nested wait: pop own
  /// deque, poll the inbox, or make one steal attempt (one victim sweep).
  /// Returns nullptr when no task was found. Only callable from this
  /// worker's own thread.
  TaskBase* find_task();

 private:
  friend class Scheduler;
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  void thread_main();
  /// True when this worker must vacate its core (space-sharing modes only):
  /// the allocation table no longer lists our program as the core's user.
  [[nodiscard]] bool should_vacate() const noexcept;
  void go_to_sleep(bool count_as_eviction);
  /// Block on the scheduler's idle gate while the program has no work at
  /// all (keeps idle schedulers off the CPU without altering behaviour
  /// while work exists).
  void idle_gate_block();

  Scheduler& sched_;
  const unsigned id_;
  DWS_OWNED_BY(worker) util::Xoshiro256 rng_;
  /// The steal sweep's victim order (Config::victim_policy); fixed at
  /// construction, it draws each sweep's start from rng_.
  DWS_OWNED_BY(worker) TieredVictimOrder victim_order_;
  StealPolicy policy_;
  ChaseLevDeque<TaskBase*> deque_;  // line-isolates its own hot words
  TaskSlabPool pool_;               // line-isolates its own hot words
  LiveWorkerStats stats_;           // alignas(64), owner-written only

  std::thread thread_;
  // Wake domain: state_ is CASed/stored by the coordinator and the owner,
  // and m_/cv_/wake_pending_ move together with it under the sleep/wake
  // handshake — one sharing domain, isolated on its own line(s) so
  // coordinator wakes never invalidate stats_ (above) in the owner's
  // cache. thread_ precedes the alignas boundary: it is written only
  // before/after the thread runs, so sharing its line is harmless.
  alignas(layout::kCacheLineBytes) DWS_SHARED std::atomic<int> state_{
      static_cast<int>(State::kActive)};
  DWS_SHARED std::mutex m_;
  DWS_SHARED std::condition_variable cv_;
  DWS_SHARED bool wake_pending_ = false;  // guarded by m_
};

/// The worker currently executing on this thread (nullptr on external
/// threads). Set for the lifetime of Worker::thread_main.
[[nodiscard]] Worker* current_worker() noexcept;

}  // namespace dws::rt
