// The counter vocabulary both executors report in: what a worker counts
// as it runs Algorithm 1 (§3.2) and what a coordinator counts on its
// §3.3 ticks. The real runtime and the simulator count the same events
// under the same names, so one invariant checker runs over both
// (tests/counter_invariants.hpp).
//
// Each field list is written once, in a `for_each` visitor that
// `operator+=` and the CSV export walk. The structs are templated on the
// counter type: the runtime's live blocks use RelaxedCounter, snapshots
// and the simulator plain std::uint64_t.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/topology.hpp"
#include "util/layout.hpp"

namespace dws {

/// Monotonic counter written by one owner thread and racily readable from
/// others (relaxed atomics, so concurrent snapshots are well-defined but
/// may lag). Copying takes a relaxed snapshot. Keeps plain-integer syntax
/// so counting sites and reporting code read naturally.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  // Copying is an explicit relaxed load/store pair, exactly like
  // assignment: the source may be a *live* counter still being bumped by
  // its owner (Scheduler::stats() aggregates per-worker counters without
  // quiescing), so the copy must go through the atomic — never a plain
  // member copy, which would be a racy 64-bit read and could tear.
  RelaxedCounter(const RelaxedCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
  }
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() noexcept {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const noexcept { return load(); }  // NOLINT
  [[nodiscard]] std::uint64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  // dws-layout: packed-ok single-field wrapper; each wrapping field
  // declares the actual sharing domain (see WorkerEvents)
  std::atomic<std::uint64_t> v_{0};
};

/// Events a worker counts as they happen. In the runtime each block has
/// one writer, its worker thread; the simulator is single-threaded.
template <typename Counter>
struct WorkerEvents {
  DWS_OWNED_BY(worker) Counter tasks_executed{};
  DWS_OWNED_BY(worker) Counter steals{};
  DWS_OWNED_BY(worker) Counter failed_steals{};
  DWS_OWNED_BY(worker) Counter yields{};
  DWS_OWNED_BY(worker) Counter sleeps{};
  DWS_OWNED_BY(worker) Counter wakes{};
  /// Times the worker vacated a core its program no longer holds.
  DWS_OWNED_BY(worker) Counter evictions{};
  /// Successful steals by the victim's DistanceTier (sums to `steals`).
  DWS_OWNED_BY(worker) Counter steals_by_tier[kNumDistanceTiers]{};

  /// The field list: calls `f(name, self.field, others.field...)` for
  /// every counter, in declaration order.
  template <typename F, typename Self, typename... Others>
  static void for_each(F&& f, Self& self, Others&... others) {
    f("tasks_executed", self.tasks_executed, others.tasks_executed...);
    f("steals", self.steals, others.steals...);
    f("failed_steals", self.failed_steals, others.failed_steals...);
    f("yields", self.yields, others.yields...);
    f("sleeps", self.sleeps, others.sleeps...);
    f("wakes", self.wakes, others.wakes...);
    f("evictions", self.evictions, others.evictions...);
    static constexpr const char* kTierNames[kNumDistanceTiers] = {
        "steals_verynear", "steals_near", "steals_far", "steals_veryfar"};
    for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
      f(kTierNames[t], self.steals_by_tier[t], others.steals_by_tier[t]...);
    }
  }

  template <typename C>
  WorkerEvents& operator+=(const WorkerEvents<C>& o) {
    for_each([](const char*, auto& a, const auto& b) { a += b; }, *this, o);
    return *this;
  }
};

/// A worker's counters as plain numbers: a snapshot of one worker or the
/// sum over several.
struct WorkerCounters : WorkerEvents<std::uint64_t> {
  /// Derived, never counted: every steal attempt ends in exactly one
  /// `steals` or `failed_steals` bump, so `+=` keeps this at their sum.
  std::uint64_t steal_attempts = 0;

  template <typename F, typename Self, typename... Others>
  static void for_each(F&& f, Self& self, Others&... others) {
    f("steal_attempts", self.steal_attempts, others.steal_attempts...);
    WorkerEvents::for_each(f, self, others...);
  }

  template <typename C>
  WorkerCounters& operator+=(const WorkerEvents<C>& o) {
    WorkerEvents::operator+=(o);
    steal_attempts = steals + failed_steals;
    return *this;
  }
};

/// What a coordinator counts on its ticks (§3.3). In the runtime the one
/// writer is the coordinator thread.
template <typename Counter>
struct CoordinatorEvents {
  DWS_OWNED_BY(coordinator) Counter coordinator_ticks{};
  /// Sleeping workers a tick woke (not relaunch or shutdown wakes).
  DWS_OWNED_BY(coordinator) Counter coordinator_wakes{};
  /// Free cores claimed / lent home cores taken back.
  DWS_OWNED_BY(coordinator) Counter cores_claimed{};
  DWS_OWNED_BY(coordinator) Counter cores_reclaimed{};

  /// The field list, as WorkerEvents::for_each.
  template <typename F, typename Self, typename... Others>
  static void for_each(F&& f, Self& self, Others&... others) {
    f("coordinator_ticks", self.coordinator_ticks,
      others.coordinator_ticks...);
    f("coordinator_wakes", self.coordinator_wakes,
      others.coordinator_wakes...);
    f("cores_claimed", self.cores_claimed, others.cores_claimed...);
    f("cores_reclaimed", self.cores_reclaimed, others.cores_reclaimed...);
  }

  template <typename C>
  CoordinatorEvents& operator+=(const CoordinatorEvents<C>& o) {
    for_each([](const char*, auto& a, const auto& b) { a += b; }, *this, o);
    return *this;
  }
};

using CoordinatorCounters = CoordinatorEvents<std::uint64_t>;

}  // namespace dws
