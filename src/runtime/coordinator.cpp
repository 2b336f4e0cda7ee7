#include "runtime/coordinator.hpp"

#include <chrono>

#include "runtime/scheduler.hpp"

namespace dws::rt {

Coordinator::Coordinator(Scheduler& sched, double period_ms,
                         double wake_threshold)
    : sched_(sched), period_ms_(period_ms), policy_(wake_threshold) {
  if (mode_space_shares(sched_.mode())) {
    // Anchor the topology-aware ordering at the program's first home core
    // (the home partition is contiguous, so one anchor represents it).
    CoreId home_core = 0;
    for (CoreId c = 0; c < sched_.num_workers(); ++c) {
      if (sched_.table()->home_of(c) == sched_.pid()) {
        home_core = c;
        break;
      }
    }
    driver_ = std::make_unique<CoordinatorDriver>(
        *sched_.table(), sched_.pid(), &sched_.topology(), home_core);
    if (sched_.config().stale_after_periods > 0) {
      sweeper_ = std::make_unique<StaleSweeper>(
          *sched_.table(), sched_.pid(), sched_.config().stale_after_periods);
    }
  }
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Coordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_requested_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void Coordinator::thread_main() {
  using Clock = std::chrono::steady_clock;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(period_ms_));
  auto next_period = Clock::now() + period;
  std::unique_lock<std::mutex> lock(m_);
  while (!stop_requested_) {
    // Sleep until the period T elapses (§3.4) or a nudge is pending.
    // Demand steps do not move the periodic deadline: T stays the
    // heartbeat and stale-sweep clock however often demand arrives.
    cv_.wait_until(lock, next_period,
                   [this] { return stop_requested_ || nudge_pending_; });
    if (stop_requested_) break;
    nudge_pending_ = false;
    const auto now = Clock::now();
    const bool periodic = now >= next_period;
    if (periodic) next_period = now + period;
    lock.unlock();
    tick(periodic);
    lock.lock();
  }
}

void Coordinator::nudge() noexcept {
  std::lock_guard<std::mutex> lock(m_);
  nudge_pending_ = true;
  cv_.notify_all();
}

void Coordinator::tick(bool periodic) {
  if (periodic) {
    if (sched_.config().adaptive_t_sleep) sched_.decay_t_sleep();
    if (driver_ != nullptr) {
      // Liveness: tell co-runners we are alive, then recover from any
      // that no longer are. Sweeping before the snapshot means cores
      // freed from a dead co-runner count toward N_f in *this* tick's
      // decision — the survivor's demand-aware wake path absorbs them
      // immediately.
      sched_.table()->heartbeat(sched_.pid());
      if (sweeper_ != nullptr) {
        const StaleSweepResult swept = sweeper_->sweep();
        if (!swept.empty()) {
          stale_programs_swept_.fetch_add(swept.declared_dead.size(),
                                          std::memory_order_relaxed);
          cores_recovered_.fetch_add(swept.freed.size(),
                                     std::memory_order_relaxed);
        }
      }
    }
  }

  DemandSnapshot s;
  s.queued_tasks = sched_.queued_tasks();      // N_b
  s.active_workers = sched_.active_workers();  // N_a
  s.sleeping_workers = sched_.sleeping_workers();
  wake(coordinator_step(policy_, driver_.get(), s, counters_));
  // Once per period a spawn may trigger a demand step even when the last
  // one could not win a core (sleeps and wakes re-arm it otherwise).
  if (periodic) sched_.arm_demand_gate();
}

void Coordinator::wake(const StepWakes& wakes) {
  for (const auto* cores : {&wakes.cores.claimed, &wakes.cores.reclaimed}) {
    for (CoreId c : *cores) {
      if (sched_.worker_at(c).wake()) ++counters_.coordinator_wakes;
    }
  }
  unsigned need = wakes.in_place;
  for (unsigned i = 0; i < sched_.num_workers() && need > 0; ++i) {
    if (sched_.worker_at(i).wake()) {
      --need;
      ++counters_.coordinator_wakes;
    }
  }
}

}  // namespace dws::rt
