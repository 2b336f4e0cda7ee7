// Helpers shared by the runtime test suites: a polling wait with an
// explicit timeout, and the self-renewing task chain that keeps a program
// saturated.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "runtime/scheduler.hpp"

namespace dws {

/// Poll `pred` every millisecond until it holds or `timeout` elapses;
/// returns pred().
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// Opaque arithmetic the optimizer cannot remove. Unsigned, so long runs
/// wrap instead of overflowing.
inline std::int64_t spin_work(std::int64_t iters) {
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    acc += static_cast<std::uint64_t>(i) ^ (acc >> 3);
    asm volatile("" : "+r"(acc));  // optimization barrier
  }
  return static_cast<std::int64_t>(acc);
}

/// One link of a self-renewing task chain: it spawns its successor into
/// `group` before doing its own `iters` of spin_work, so a program running
/// a few more chains than it has workers never runs dry, no worker
/// reaches T_SLEEP, and no core is released. The chain ends once `*stop`
/// is set; with no stop flag it never ends.
struct ChainLink {
  rt::Scheduler* sched;
  rt::TaskGroup* group;
  std::int64_t iters;
  const std::atomic<bool>* stop = nullptr;

  void operator()() const {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) return;
    sched->spawn(*group, ChainLink{*this});
    spin_work(iters);
  }
};

}  // namespace dws
