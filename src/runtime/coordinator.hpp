// The per-program coordinator thread (§3.3): every T milliseconds it
// snapshots the program's demand (N_b, N_a) and the table state (N_f,
// N_r), runs CoordinatorPolicy, acquires cores, and wakes the sleeping
// workers on them. Between periods, a nudge (external work on an idle
// program, or the scheduler's demand gate: a spawn while some worker
// sleeps) runs the same decision at once.
//
// Only the sleeping modes (DWS, DWS-NC) get a live coordinator; for other
// modes the scheduler does not construct one, matching the paper's claim
// that the coordinator is DWS's only overhead (§4.4).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "core/coordinator_policy.hpp"
#include "core/counters.hpp"
#include "core/types.hpp"
#include "util/layout.hpp"

namespace dws::rt {

class Scheduler;

class Coordinator {
 public:
  Coordinator(Scheduler& sched, double period_ms, double wake_threshold);
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;
  ~Coordinator();

  void start();
  /// Signal and join. Safe to call multiple times.
  void stop();

  /// Run one coordination step immediately (also used by tests to drive
  /// the coordinator deterministically without waiting out the period).
  /// A periodic step also heartbeats, sweeps stale co-runners, decays
  /// the adaptive T_SLEEP and re-arms the demand gate; a demand step
  /// (`periodic == false`) only runs the Eq. 1 decision and its wakes.
  void tick(bool periodic = true);

  /// Request a demand step now. Called when external work arrives on an
  /// idle program and when the demand gate trips. The request is a
  /// pending flag, so one that lands during a tick is served right
  /// after it instead of being lost until the next period.
  void nudge() noexcept;

  /// Live tick, wake and core-grant counts (relaxed; see RelaxedCounter).
  [[nodiscard]] const CoordinatorEvents<RelaxedCounter>& counters()
      const noexcept {
    return counters_;
  }
  /// Co-running programs this coordinator has declared dead and swept.
  [[nodiscard]] std::uint64_t stale_programs_swept() const noexcept {
    return stale_programs_swept_.load(std::memory_order_relaxed);
  }
  /// Cores recovered from dead co-runners by the stale sweep.
  [[nodiscard]] std::uint64_t cores_recovered() const noexcept {
    return cores_recovered_.load(std::memory_order_relaxed);
  }

 private:
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  void thread_main();
  /// Wake the sleeping worker on each won core, or `wakes.in_place`
  /// sleeping workers wherever they are (DWS-NC).
  void wake(const StepWakes& wakes);

  Scheduler& sched_;
  const double period_ms_;
  CoordinatorPolicy policy_;
  std::unique_ptr<CoordinatorDriver> driver_;  // only for table-using modes
  std::unique_ptr<StaleSweeper> sweeper_;      // crash tolerance (optional)

  std::thread thread_;
  // Stop/nudge handshake: written by the owning Scheduler (stop, nudge)
  // and read by the coordinator thread — a different writer set than the
  // tick counters below, so the two groups get separate lines.
  DWS_SHARED std::mutex m_;
  DWS_SHARED std::condition_variable cv_;
  DWS_SHARED bool stop_requested_ = false;  // guarded by m_
  DWS_SHARED bool nudge_pending_ = false;   // guarded by m_

  // Monitoring counters, written by the coordinator thread alone on its
  // ticks and read racily by stats snapshots.
  alignas(layout::kCacheLineBytes) DWS_OWNED_BY(coordinator)
      CoordinatorEvents<RelaxedCounter> counters_;
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> stale_programs_swept_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_recovered_{0};
};

}  // namespace dws::rt
