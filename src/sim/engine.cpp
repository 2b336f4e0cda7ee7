#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "core/victim_order.hpp"

namespace dws::sim {

namespace {
constexpr double kEps = 1e-9;
constexpr unsigned kNoWorker = 0xFFFFFFFFu;

/// A power-of-two ring of task ids: the owner pushes and pops at the
/// back, thieves (and work-sharing pollers) take from the front.
class NodeRing {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }
  [[nodiscard]] std::size_t size() const noexcept { return tail_ - head_; }
  void push_back(NodeId n) {
    if (size() == buf_.size()) grow();
    buf_[tail_++ & mask_] = n;
  }
  NodeId pop_back() noexcept { return buf_[--tail_ & mask_]; }
  NodeId pop_front() noexcept { return buf_[head_++ & mask_]; }

 private:
  void grow() {
    std::vector<NodeId> bigger(std::max<std::size_t>(16, 2 * buf_.size()));
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) bigger[i] = buf_[(head_ + i) & mask_];
    buf_ = std::move(bigger);
    mask_ = buf_.size() - 1;
    head_ = 0;
    tail_ = n;
  }

  std::vector<NodeId> buf_;
  std::size_t mask_ = 0;
  std::size_t head_ = 0, tail_ = 0;  // free-running; index with & mask_
};

/// One DAG node as the hot path reads it: work, the memory intensity with
/// the program default already applied, the continuation, and where the
/// node's spawns start in DagView::spawns.
struct FlatNode {
  double work_us;
  double mem_intensity;
  NodeId continuation;
  std::uint32_t first_spawn;
};

/// A program's DAG flattened for the engine. Node n spawns
/// spawns[nodes[n].first_spawn .. nodes[n + 1].first_spawn) (CSR form; a
/// sentinel node closes the last range), and joins[n] is its join fan-in.
struct DagView {
  std::vector<FlatNode> nodes;  // size() + 1 entries
  std::vector<NodeId> spawns;
  std::vector<std::uint32_t> joins;

  DagView() = default;
  DagView(const TaskDag& dag, double default_mem_intensity) {
    const std::size_t n = dag.size();
    nodes.reserve(n + 1);
    spawns.reserve(n);  // a valid DAG spawns each node at most once
    joins.assign(n, 0);
    for (NodeId u = 0; u < n; ++u) {
      const DagNode& d = dag.node(u);
      nodes.push_back(FlatNode{
          d.work_us,
          d.mem_intensity >= 0.0 ? d.mem_intensity : default_mem_intensity,
          d.continuation, static_cast<std::uint32_t>(spawns.size())});
      spawns.insert(spawns.end(), d.spawns.begin(), d.spawns.end());
      if (d.continuation != kNoNode) ++joins[d.continuation];
    }
    nodes.push_back(FlatNode{0.0, 0.0, kNoNode,
                             static_cast<std::uint32_t>(spawns.size())});
  }
};
}  // namespace

const ProgramResult& SimResult::program(const std::string& name) const {
  for (const auto& p : programs) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no program named " + name);
}

struct SimEngine::Impl {
  // ---- static configuration ----
  SimParams params;
  std::vector<SimProgramSpec> specs;
  unsigned k = 0;  // cores
  unsigned m = 0;  // programs

  // ---- shared core allocation table (real implementation) ----
  std::unique_ptr<CoreTableLocal> table_storage;
  CoreTable* table = nullptr;

  // ---- simulated entities ----
  enum class WState : int { kRunnable, kRunning, kSleeping, kWaking, kParked };
  enum class Op : int { kNone, kPop, kSteal, kMigrate, kExec };

  struct WorkerSt {
    unsigned prog = 0;   // program index (0-based)
    CoreId core = 0;
    WState st = WState::kRunnable;
    NodeRing pool;  // back = bottom (owner end), front = top
    StealPolicy policy{SchedMode::kDws, 0};
    TieredVictimOrder victims;  // the program's other worker slots
    Op op = Op::kNone;
    double op_left = 0.0;       // remaining latency for kPop/kSteal/kMigrate
    double op_cost = 0.0;       // full planned latency of the current op
    NodeId exec_node = kNoNode;
    NodeId mig_node = kNoNode;  // stolen task in flight during kMigrate
    double exec_work_left = 0.0;  // remaining *work* (unscaled) for kExec
    double seg_slowdown = 1.0;    // cache factor of the planned segment
    WorkerEvents<std::uint64_t> counts;
    double exec_time = 0.0, cache_penalty = 0.0, steal_overhead = 0.0;
    double mig_time = 0.0;  // transfer cost charged on cross-tier steals
    double slept_at = 0.0;  // time of the last sleep (adaptive T_SLEEP)
  };

  struct CoreSt {
    std::deque<unsigned> runq;  // global worker indices, FIFO
    unsigned running = kNoWorker;
    double quantum_left = 0.0;
    double seg_start = 0.0;
    double seg_len = 0.0;
    std::uint64_t seg_seq = 0;  // seq of the pending segment event
    double busy_us = 0.0;
    double exec_us = 0.0;
  };

  /// One program's state in one cache: warmth in [0,1], the program's own
  /// cumulative execution time there, and the foreign time already decayed
  /// into the warmth (lazy decay reads the difference).
  struct Warmth {
    double warmth = 0.0;
    double exec_by = 0.0;
    double foreign_seen = 0.0;
  };

  struct ProgSt {
    SimProgramSpec spec;
    ProgramId pid = kNoProgram;  // table id (1-based)
    DagView dag;
    std::vector<std::uint32_t> join_left;
    std::uint32_t tasks_left = 0;
    unsigned runs_done = 0;
    std::vector<double> run_times;
    double run_start = 0.0;
    CoordinatorPolicy policy{1.0};
    std::unique_ptr<CoordinatorDriver> driver;
    CoordinatorCounters counts;
    CoreId start_core = 0;
    /// Work-sharing variant (§4.4): the per-program central task FIFO.
    NodeRing central;
    /// Adaptive T_SLEEP extension: current program-wide threshold.
    int cur_t_sleep = 0;
  };

  std::vector<WorkerSt> workers;  // [prog * k + core]
  std::vector<CoreSt> cores;
  std::vector<ProgSt> progs;

  // The cache model's caches: each core's private cache (index = core),
  // then each socket's LLC (index = k + socket).
  std::vector<double> cache_exec;  // [cache]: cumulative execution time
  std::vector<Warmth> warmth;      // [cache * m + program]

  util::Xoshiro256 rng{0};

  // Machine model shared with the coordinator drivers, the victim orders
  // and the cache model's socket split.
  Topology topo;

  // ---- event queue ----
  // An event is a 16-byte key: the time's bits in the high word (times are
  // >= 0, and the bits of non-negative doubles order like their values),
  // `seq << src_bits | source` in the low word. One integer compare orders
  // events by (time, seq), seq being unique. The source names the
  // handler: core c's segment is c, program p's coordinator tick k + p,
  // worker w's wake k + m + w, the timeline sample k + m + m*k.
  //
  // The most recently scheduled event waits in the one-entry `held` slot
  // and enters the heap only when another event is scheduled while it is
  // still there. A core usually schedules its next segment while handling
  // the previous one, and that segment is often the earliest pending
  // event, so it never touches the heap. When the heap's root is popped
  // instead, the held event takes the root's place in one sift-down and
  // the slot is free again for the next event.
  __extension__ typedef unsigned __int128 Key;
  static constexpr Key kNoKey = ~Key{0};
  std::vector<Key> heap;  // binary min-heap
  Key held = kNoKey;
  unsigned src_bits = 0;
  std::uint64_t next_seq = 0;
  double now = 0.0;
  bool finished = false;
  bool hit_limit = false;
  std::vector<TimelineSample> timeline;
  std::vector<TraceEvent> trace;
  bool trace_truncated = false;

  void emit(TraceKind kind, unsigned prog, CoreId core,
            NodeId node = kNoNode) {
    if (!params.collect_trace) return;
    if (trace.size() >= params.trace_capacity) {
      trace_truncated = true;
      return;
    }
    trace.push_back(TraceEvent{now, kind, prog, core, node});
  }

  /// Schedule the event of `source` at time t; returns its seq.
  std::uint64_t push_event(double t, std::uint32_t source) {
    const std::uint64_t seq = next_seq++;
    if (held != kNoKey) {
      heap.push_back(held);
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
    held = (Key{std::bit_cast<std::uint64_t>(t)} << 64) |
           (seq << src_bits | source);
    return seq;
  }

  /// Remove and return the earliest event; kNoKey when none is pending.
  Key pop_event() {
    if (heap.empty() || held < heap[0]) return std::exchange(held, kNoKey);
    const Key top = heap[0];
    Key fill = std::exchange(held, kNoKey);
    if (fill == kNoKey) {
      fill = heap.back();
      heap.pop_back();
      if (heap.empty()) return top;
    }
    sift_down(fill);
    return top;
  }

  /// Put `key` at the root (whose key has been taken) and restore the
  /// standard heap order std::push_heap keeps (children of i at 2i + 1
  /// and 2i + 2).
  void sift_down(Key key) {
    const std::size_t n = heap.size();
    std::size_t i = 0;
    for (std::size_t child = 1; child < n; child = 2 * i + 1) {
      if (child + 1 < n) child += heap[child + 1] < heap[child];
      if (!(heap[child] < key)) break;
      heap[i] = heap[child];
      i = child;
    }
    heap[i] = key;
  }

  [[nodiscard]] std::uint32_t tick_source(unsigned prog) const {
    return k + prog;
  }
  [[nodiscard]] std::uint32_t wake_source(unsigned wi) const {
    return k + m + wi;
  }
  [[nodiscard]] std::uint32_t sample_source() const { return k + m + m * k; }

  [[nodiscard]] unsigned widx(unsigned prog, CoreId core) const {
    return prog * k + core;
  }

  // ------------------------------------------------------------------
  Impl(const SimParams& p, std::vector<SimProgramSpec> s)
      : params(p), specs(std::move(s)) {
    k = params.num_cores;
    m = static_cast<unsigned>(specs.size());
    if (k == 0 || m == 0) throw std::invalid_argument("need cores, programs");
    for (double speed : params.core_speeds) {
      if (!(speed > 0.0)) {
        throw std::invalid_argument("core speeds must be positive");
      }
    }
    for (const auto& spec : specs) {
      if (spec.dag == nullptr || spec.dag->empty()) {
        throw std::invalid_argument("program '" + spec.name + "' has no DAG");
      }
      const std::string err = spec.dag->validate();
      if (!err.empty()) {
        throw std::invalid_argument("program '" + spec.name +
                                    "': invalid DAG: " + err);
      }
    }
    rng = util::Xoshiro256(params.seed);
    topo = params.topology();
    src_bits = static_cast<unsigned>(std::bit_width(sample_source()));

    table_storage = std::make_unique<CoreTableLocal>(k, m);
    table = &table_storage->table();

    cores.resize(k);
    cache_exec.assign(k + topo.num_sockets(), 0.0);
    warmth.resize(cache_exec.size() * m);

    progs.resize(m);
    workers.resize(static_cast<std::size_t>(m) * k);

    for (unsigned pi = 0; pi < m; ++pi) {
      ProgSt& p2 = progs[pi];
      p2.spec = specs[pi];
      p2.pid = table->register_program();
      p2.dag = DagView(*p2.spec.dag, p2.spec.default_mem_intensity);
      p2.policy = CoordinatorPolicy(params.wake_threshold);
      p2.cur_t_sleep = params.effective_t_sleep();

      const bool shares = mode_space_shares(p2.spec.mode);
      if (shares) {
        const auto claimed = table->claim_home_cores(p2.pid);
        if (p2.spec.mode == SchedMode::kEp && claimed.empty()) {
          throw std::invalid_argument("EP program '" + p2.spec.name +
                                      "' has no home cores (m > k?)");
        }
      }
      // Start core: first home core, else round-robin fallback.
      p2.start_core = pi % k;
      for (CoreId c = 0; c < k; ++c) {
        if (table->home_of(c) == p2.pid) {
          p2.start_core = c;
          break;
        }
      }
      if (p2.spec.mode == SchedMode::kDws) {
        p2.driver = std::make_unique<CoordinatorDriver>(*table, p2.pid, &topo,
                                                        p2.start_core);
      }

      for (CoreId c = 0; c < k; ++c) {
        WorkerSt& w = workers[widx(pi, c)];
        w.prog = pi;
        w.core = c;
        w.policy = StealPolicy(p2.spec.mode, params.effective_t_sleep());
        // Victims are worker slots, as the runtime's are worker ids, so
        // BWS directed yield (which moves a worker to another core) does
        // not reorder them.
        w.victims = TieredVictimOrder(topo, c, k, params.victim_policy);
        switch (p2.spec.mode) {
          case SchedMode::kEp:
            w.st = table->home_of(c) == p2.pid ? WState::kRunnable
                                               : WState::kParked;
            break;
          case SchedMode::kDws:
            w.st = table->user_of(c) == p2.pid ? WState::kRunnable
                                               : WState::kSleeping;
            break;
          default:
            w.st = WState::kRunnable;  // CLASSIC / ABP / DWS-NC time-share
            break;
        }
        if (w.st == WState::kRunnable) cores[c].runq.push_back(widx(pi, c));
      }
    }

    // Seed each program's first run and the coordinator ticks.
    for (unsigned pi = 0; pi < m; ++pi) {
      start_run(pi, widx(pi, progs[pi].start_core));
      if (mode_sleeps(progs[pi].spec.mode)) {
        // Small stagger mimics non-identical process launch instants and
        // keeps tick ordering well-defined without tie storms.
        push_event(params.coordinator_period_us + 17.0 * pi, tick_source(pi));
      }
    }
    for (CoreId c = 0; c < k; ++c) pick_next(c);
    if (params.timeline_sample_period_us > 0.0) {
      push_event(params.timeline_sample_period_us, sample_source());
    }
  }

  void on_sample() {
    TimelineSample sample;
    sample.t_us = now;
    sample.active_workers.resize(m, 0);
    for (unsigned pi = 0; pi < m; ++pi) {
      for (CoreId c = 0; c < k; ++c) {
        const WState st = workers[widx(pi, c)].st;
        if (st == WState::kRunning || st == WState::kRunnable ||
            st == WState::kWaking) {
          ++sample.active_workers[pi];
        }
      }
    }
    sample.free_cores = table->count_free();
    timeline.push_back(std::move(sample));
    push_event(now + params.timeline_sample_period_us, sample_source());
  }

  // ---- program run lifecycle ----

  void start_run(unsigned pi, unsigned start_worker) {
    ProgSt& p = progs[pi];
    p.join_left = p.dag.joins;
    p.tasks_left = static_cast<std::uint32_t>(p.spec.dag->size());
    p.run_start = now;
    emit(TraceKind::kRunStart, pi, workers[start_worker].core);
    enqueue_task(p, workers[start_worker], p.spec.dag->root());
    relaunch_activation(pi);
  }

  /// Fig. 3 runs each benchmark binary repeatedly: every repetition is a
  /// fresh program *launch*, and a fresh launch performs the §3.1 initial
  /// allocation — the worker on every home core the program can take
  /// becomes active. Without this, a repetition would inherit the
  /// previous run's sleep state and pay a coordinator-latency ramp the
  /// paper's methodology never measures.
  void relaunch_activation(unsigned pi) {
    ProgSt& p = progs[pi];
    if (mode_space_shares(p.spec.mode)) {
      table->claim_home_cores(p.pid);  // free home cores only; borrowed
                                       // ones return via reclaim (§3.3)
      for (CoreId c = 0; c < k; ++c) {
        if (table->home_of(c) == p.pid && table->user_of(c) == p.pid) {
          wake_worker(widx(pi, c), /*from_coordinator=*/false);
        }
      }
    } else if (p.spec.mode == SchedMode::kDwsNc) {
      // A fresh DWS-NC launch starts all k workers active (time-sharing).
      for (CoreId c = 0; c < k; ++c) {
        wake_worker(widx(pi, c), /*from_coordinator=*/false);
      }
    }
  }

  void finish_run(unsigned pi, unsigned completing_worker) {
    ProgSt& p = progs[pi];
    emit(TraceKind::kRunFinish, pi, workers[completing_worker].core);
    p.run_times.push_back(now - p.run_start);
    ++p.runs_done;
    if (all_targets_met()) {
      finished = true;
      return;
    }
    // Fig. 3: programs re-run back-to-back so execution stays overlapped.
    start_run(pi, completing_worker);
  }

  [[nodiscard]] bool all_targets_met() const {
    for (const auto& p : progs) {
      if (p.runs_done < p.spec.target_runs) return false;
    }
    return true;
  }

  // ---- cache model ----

  [[nodiscard]] unsigned llc_of(CoreId c) const {
    return k + topo.socket_of(c);
  }

  /// Apply program pi's pending foreign-execution decay in `cache`, then
  /// return its refreshed entry.
  Warmth& touch_warmth(unsigned cache, unsigned pi, double decay_const) {
    Warmth& e = warmth[cache * m + pi];
    const double foreign_now = cache_exec[cache] - e.exec_by;
    const double delta = foreign_now - e.foreign_seen;
    if (delta > 0.0) {
      e.warmth *= std::exp(-delta / decay_const);
      e.foreign_seen = foreign_now;
    }
    return e;
  }

  double current_slowdown(const WorkerSt& w) {
    const double mi = progs[w.prog].dag.nodes[w.exec_node].mem_intensity;
    if (mi <= 0.0) return 1.0;
    const double wc =
        touch_warmth(w.core, w.prog, params.core_decay_us).warmth;
    const double ws =
        touch_warmth(llc_of(w.core), w.prog, params.llc_decay_us).warmth;
    return 1.0 + mi * (params.core_miss_penalty * (1.0 - wc) +
                       params.llc_miss_penalty * (1.0 - ws));
  }

  /// Program pi executed for `elapsed` in `cache`: decay first (so its own
  /// time is not counted as foreign), then warm its entry.
  void warm(unsigned cache, unsigned pi, double elapsed, double decay_const,
            double warmup_const) {
    Warmth& e = touch_warmth(cache, pi, decay_const);
    e.warmth = 1.0 - (1.0 - e.warmth) * std::exp(-elapsed / warmup_const);
    e.exec_by += elapsed;
    cache_exec[cache] += elapsed;
  }

  void account_exec(WorkerSt& w, double elapsed) {
    warm(w.core, w.prog, elapsed, params.core_decay_us,
         params.core_warmup_us);
    warm(llc_of(w.core), w.prog, elapsed, params.llc_decay_us,
         params.llc_warmup_us);
    cores[w.core].exec_us += elapsed;
    w.exec_time += elapsed;
  }

  // ---- core scheduling ----

  void pick_next(CoreId c) {
    CoreSt& core = cores[c];
    core.running = kNoWorker;
    while (!core.runq.empty()) {
      const unsigned wi = core.runq.front();
      core.runq.pop_front();
      core.running = wi;
      core.quantum_left = params.quantum_us;
      workers[wi].st = WState::kRunning;
      if (workers[wi].op == Op::kNone) {
        if (!worker_decide(wi)) {
          // Worker transitioned away (slept/parked); try the next one.
          core.running = kNoWorker;
          continue;
        }
      }
      plan_segment(c);
      return;
    }
  }

  void plan_segment(CoreId c) {
    CoreSt& core = cores[c];
    WorkerSt& w = workers[core.running];
    double dur;
    if (w.op == Op::kExec) {
      w.seg_slowdown = current_slowdown(w);
      // Wall time = work * cache factor / core speed (asymmetric cores).
      const double wall_needed =
          w.exec_work_left * w.seg_slowdown / params.speed_of(c);
      dur = std::min(wall_needed, params.cache_update_granularity_us);
    } else {
      dur = w.op_left;
    }
    const double seg = std::min(dur, core.quantum_left);
    core.seg_start = now;
    core.seg_len = seg;
    core.seg_seq = push_event(now + seg, c);
  }

  void preempt(CoreId c) {
    CoreSt& core = cores[c];
    const unsigned wi = core.running;
    workers[wi].st = WState::kRunnable;
    core.runq.push_back(wi);
    pick_next(c);
  }

  /// BWS directed yield (Ding et al.): a thief that cannot find work
  /// donates *its own slice* to a preempted busy worker of its program —
  /// the kernel-assisted yield_to migrates the target onto the caller's
  /// core and runs it there. Crucially, the donation spends only CPU the
  /// caller owns; it never preempts anyone else (doing so livelocks
  /// asymmetric co-runner sets). Returns true if a sibling was migrated
  /// to the front of the caller's run queue; the caller must then
  /// requeue itself and reschedule its core.
  bool bws_yield_to_sibling(CoreId caller_core, unsigned prog) {
    for (CoreId c = 0; c < k; ++c) {
      CoreSt& core = cores[c];
      for (auto it = core.runq.begin(); it != core.runq.end(); ++it) {
        WorkerSt& cand = workers[*it];
        if (cand.prog == prog &&
            (cand.op == Op::kExec || !cand.pool.empty())) {
          const unsigned promoted = *it;
          core.runq.erase(it);
          cand.core = caller_core;  // migrate (cache warmth follows the
                                    // per-core model automatically)
          cores[caller_core].runq.push_front(promoted);
          return true;
        }
      }
    }
    return false;
  }

  /// Decide the next op for worker wi (must be Running with op==kNone).
  /// Returns false when the worker transitioned away from Running
  /// (slept); the caller must then pick another worker for the core.
  bool worker_decide(unsigned wi) {
    WorkerSt& w = workers[wi];
    ProgSt& p = progs[w.prog];

    if (mode_space_shares(p.spec.mode) &&
        table->user_of(w.core) != p.pid) {
      // Our core was reclaimed (or never owned): vacate (§3.3).
      worker_sleep(wi, /*eviction=*/true);
      return false;
    }
    // A task within reach is a pop: the own pool, or under work-sharing
    // (§4.4) the program's one shared FIFO.
    if (p.spec.work_sharing ? !p.central.empty() : !w.pool.empty()) {
      w.op = Op::kPop;
      w.op_left = params.pop_cost_us;
      return true;
    }
    // Become a thief. One Algorithm-1 steal attempt is one sweep of the
    // shared victim order (core/victim_order.hpp), exactly as in the
    // runtime: probe the program's other workers, near tiers first, and
    // take from the first non-empty pool. The sweep is charged one steal
    // cost per victim up front and resolves at op completion. Under
    // work-sharing the attempt is one poll of the central FIFO, and an
    // empty FIFO feeds the same StealPolicy.
    w.op = Op::kSteal;
    const double attempt_cost =
        p.spec.work_sharing
            ? params.steal_cost_us
            : params.steal_cost_us * static_cast<double>(k > 1 ? k - 1 : 1);
    w.op_cost = backed_off(attempt_cost, w.policy.failed_steals());
    w.op_left = w.op_cost;
    return true;
  }

  /// Exponential backoff on sustained failure (as real thieves do): keeps
  /// both the simulated machine and the simulator itself from drowning in
  /// fruitless probes. The attempt cost doubles every 4 consecutive
  /// failures, up to steal_backoff_cap_us; with the defaults, T_SLEEP =
  /// 16 consecutive failed sweeps is ~1.4 ms of sustained starvation.
  [[nodiscard]] double backed_off(double attempt_cost, int failed) const {
    const int fails = std::min(failed, 40);
    return std::min(attempt_cost * std::exp2(static_cast<double>(fails / 4)),
                    params.steal_backoff_cap_us);
  }

  /// Route a newly enabled task: the enabling worker's own deque under
  /// work-stealing, the program's central FIFO under work-sharing.
  void enqueue_task(ProgSt& p, WorkerSt& enabler, NodeId node) {
    if (p.spec.work_sharing) {
      p.central.push_back(node);
    } else {
      enabler.pool.push_back(node);
    }
  }

  struct SweepResult {
    NodeId node = kNoNode;
    DistanceTier tier = DistanceTier::kVeryNear;
  };

  /// Resolve worker wi's steal attempt: under work-sharing a poll of the
  /// central FIFO, otherwise one sweep of its victim order that steals
  /// the oldest task of the first non-empty pool. Returns the node plus
  /// the victim's distance tier (for the per-tier counters and the
  /// migration charge).
  SweepResult resolve_steal(unsigned wi) {
    WorkerSt& w = workers[wi];
    ProgSt& p = progs[w.prog];
    if (p.spec.work_sharing) {
      if (p.central.empty()) return {};
      return {p.central.pop_front(), DistanceTier::kVeryNear};
    }
    const auto hit = w.victims.sweep(rng, [&](VictimPick pick) {
      return !workers[widx(w.prog, pick.victim)].pool.empty();
    });
    if (!hit) return {};
    return {workers[widx(w.prog, hit->victim)].pool.pop_front(), hit->tier};
  }

  void worker_sleep(unsigned wi, bool eviction) {
    WorkerSt& w = workers[wi];
    ProgSt& p = progs[w.prog];
    w.policy.on_sleep();
    ++w.counts.sleeps;
    if (eviction) ++w.counts.evictions;
    w.st = WState::kSleeping;
    w.op = Op::kNone;
    w.slept_at = now;
    emit(eviction ? TraceKind::kEvicted : TraceKind::kSleep, w.prog, w.core);
    if (mode_space_shares(p.spec.mode)) {
      table->release(w.core, p.pid);  // CAS-guarded; no-op if reclaimed
    }
  }

  /// Adaptive T_SLEEP (§6 extension): called when a worker wakes. A sleep
  /// that lasted less than the short-sleep horizon means the threshold
  /// triggered prematurely — escalate it; the coordinator tick decays it
  /// back toward the base value (core/steal_policy.hpp has both rules).
  void adapt_t_sleep_on_wake(const WorkerSt& w) {
    if (!params.adaptive_t_sleep) return;
    const double horizon = params.adaptive_short_sleep_us > 0.0
                               ? params.adaptive_short_sleep_us
                               : params.coordinator_period_us;
    if (now - w.slept_at >= horizon) return;
    ProgSt& p = progs[w.prog];
    p.cur_t_sleep =
        escalated_t_sleep(p.cur_t_sleep, params.effective_t_sleep());
  }

  void begin_exec(WorkerSt& w, NodeId node) {
    emit(TraceKind::kTaskStart, w.prog, w.core, node);
    w.policy.on_task_acquired();
    w.op = Op::kExec;
    w.exec_node = node;
    w.exec_work_left = progs[w.prog].dag.nodes[node].work_us;
  }

  /// Handle completion of the current op of the worker running on core c.
  /// Returns false when the worker left the Running state (yield/sleep):
  /// the core has already been rescheduled.
  bool complete_op(CoreId c) {
    CoreSt& core = cores[c];
    const unsigned wi = core.running;
    WorkerSt& w = workers[wi];

    switch (w.op) {
      case Op::kPop: {
        w.op = Op::kNone;
        ProgSt& p = progs[w.prog];
        if (p.spec.work_sharing) {
          if (!p.central.empty()) {
            begin_exec(w, p.central.pop_front());  // shared FIFO
            return true;
          }
        } else if (!w.pool.empty()) {
          begin_exec(w, w.pool.pop_back());  // own deque, LIFO
          return true;
        }
        // Raced empty (a thief drained us mid-pop): fall through to a
        // fresh decision (which will go steal/poll).
        return worker_decide(wi) || (pick_next(c), false);
      }
      case Op::kSteal: {
        w.op = Op::kNone;
        w.steal_overhead += w.op_cost;
        if (const SweepResult sw = resolve_steal(wi);
            sw.node != kNoNode) {
          // A successful central-queue poll (work-sharing) is a pop, not
          // a steal; only deque sweeps count toward the steal stats.
          if (!progs[w.prog].spec.work_sharing) {
            ++w.counts.steals;
            ++w.counts.steals_by_tier[static_cast<int>(sw.tier)];
            emit(TraceKind::kSteal, w.prog, w.core, sw.node);
            const double mig =
                params.steal_tier_migration_us[static_cast<int>(sw.tier)];
            if (mig > 0.0) {
              // The stolen task's working set crosses the interconnect
              // before execution can begin (tier-dependent NUMA cost).
              w.op = Op::kMigrate;
              w.op_cost = mig;
              w.op_left = mig;
              w.mig_node = sw.node;
              w.mig_time += mig;
              return true;
            }
          }
          begin_exec(w, sw.node);
          return true;
        }
        ++w.counts.failed_steals;
        if (params.adaptive_t_sleep) {
          w.policy.set_t_sleep(progs[w.prog].cur_t_sleep);
        }
        switch (w.policy.on_steal_failed()) {
          case StealOutcome::kRetry:
            return worker_decide(wi) || (pick_next(c), false);
          case StealOutcome::kYield:
            ++w.counts.yields;
            if (progs[w.prog].spec.mode == SchedMode::kBws) {
              // BWS's directed yield: migrate a preempted busy sibling
              // here and hand it this slice, rather than yielding to
              // whoever the OS would run next.
              bws_yield_to_sibling(c, w.prog);
            }
            w.st = WState::kRunnable;
            core.runq.push_back(wi);
            pick_next(c);
            return false;
          case StealOutcome::kSleep:
            worker_sleep(wi, /*eviction=*/false);
            pick_next(c);
            return false;
        }
        return true;
      }
      case Op::kMigrate: {
        // Transfer finished: the stolen task is now local; run it.
        w.op = Op::kNone;
        const NodeId node = w.mig_node;
        w.mig_node = kNoNode;
        begin_exec(w, node);
        return true;
      }
      case Op::kExec: {
        const NodeId done = w.exec_node;
        w.op = Op::kNone;
        w.exec_node = kNoNode;
        ++w.counts.tasks_executed;
        emit(TraceKind::kTaskFinish, w.prog, w.core, done);
        ProgSt& p = progs[w.prog];
        const FlatNode* node = &p.dag.nodes[done];
        for (std::uint32_t i = node[0].first_spawn; i < node[1].first_spawn;
             ++i) {
          enqueue_task(p, w, p.dag.spawns[i]);
        }
        if (node->continuation != kNoNode) {
          if (--p.join_left[node->continuation] == 0) {
            enqueue_task(p, w, node->continuation);
          }
        }
        if (--p.tasks_left == 0) {
          finish_run(w.prog, wi);
          if (finished) return true;  // engine stops; no need to continue
        }
        return worker_decide(wi) || (pick_next(c), false);
      }
      case Op::kNone:
        return true;  // nothing to complete (defensive)
    }
    return true;
  }

  // ---- event handlers ----

  /// Charge `elapsed` wall time of the running worker's current op (op
  /// progress, quantum, cache model). Returns true when the op finished.
  bool advance_running(CoreId c, double elapsed) {
    CoreSt& core = cores[c];
    WorkerSt& w = workers[core.running];
    core.quantum_left -= elapsed;
    core.busy_us += elapsed;
    if (w.op == Op::kExec) {
      const double work_done = elapsed * params.speed_of(c) / w.seg_slowdown;
      w.exec_work_left -= work_done;
      // Extra wall time attributable to cold caches (speed-independent).
      w.cache_penalty += elapsed - elapsed / w.seg_slowdown;
      account_exec(w, elapsed);
      return w.exec_work_left <= kEps;
    }
    w.op_left -= elapsed;
    return w.op_left <= kEps;
  }

  void on_core_seg(CoreId c, std::uint64_t seq) {
    CoreSt& core = cores[c];
    // A core has at most one pending segment; this check only guards it.
    if (seq != core.seg_seq || core.running == kNoWorker) return;  // stale
    const bool op_done = advance_running(c, core.seg_len);

    if (!op_done) {
      // Quantum expired mid-op: preempt (op progress is retained).
      preempt(c);
      return;
    }
    if (!complete_op(c)) return;  // core already rescheduled
    if (finished) return;
    if (core.running == kNoWorker) return;  // defensive
    if (core.quantum_left <= kEps) {
      preempt(c);
    } else {
      plan_segment(c);
    }
  }

  void on_coord_tick(unsigned pi) {
    ProgSt& p = progs[pi];

    if (params.adaptive_t_sleep) {
      // Calm periods relax the threshold back toward the base.
      p.cur_t_sleep =
          decayed_t_sleep(p.cur_t_sleep, params.effective_t_sleep());
    }

    DemandSnapshot s;
    s.queued_tasks = p.central.size();  // work-sharing FIFO (if any)
    for (CoreId c = 0; c < k; ++c) {
      const WorkerSt& w = workers[widx(pi, c)];
      s.queued_tasks += w.pool.size();
      switch (w.st) {
        case WState::kSleeping: ++s.sleeping_workers; break;
        case WState::kParked: break;
        default: ++s.active_workers; break;
      }
    }
    const StepWakes wakes =
        coordinator_step(p.policy, p.driver.get(), s, p.counts,
                         /*reclaim=*/!params.disable_reclaim);
    for (CoreId c : wakes.cores.claimed) {
      emit(TraceKind::kClaim, pi, c);
      wake_worker(widx(pi, c));
    }
    for (CoreId c : wakes.cores.reclaimed) {
      emit(TraceKind::kReclaim, pi, c);
      wake_worker(widx(pi, c));
    }
    unsigned need = wakes.in_place;
    for (CoreId c = 0; c < k && need > 0; ++c) {
      const unsigned wi = widx(pi, c);
      if (workers[wi].st == WState::kSleeping) {
        wake_worker(wi);
        --need;
      }
    }
    push_event(now + params.coordinator_period_us, tick_source(pi));
  }

  void wake_worker(unsigned wi, bool from_coordinator = true) {
    WorkerSt& w = workers[wi];
    if (w.st != WState::kSleeping) return;
    w.st = WState::kWaking;
    ++w.counts.wakes;
    emit(TraceKind::kWake, w.prog, w.core);
    if (from_coordinator) ++progs[w.prog].counts.coordinator_wakes;
    push_event(now + params.wake_latency_us, wake_source(wi));
  }

  void on_wake(unsigned wi) {
    WorkerSt& w = workers[wi];
    if (w.st != WState::kWaking) return;  // defensive
    w.st = WState::kRunnable;
    adapt_t_sleep_on_wake(w);
    CoreSt& core = cores[w.core];
    core.runq.push_back(wi);
    if (core.running == kNoWorker) pick_next(w.core);
  }

  // ---- main loop ----

  SimResult run() {
    const std::uint64_t src_mask = (std::uint64_t{1} << src_bits) - 1;
    while (!finished) {
      const Key key = pop_event();
      if (key == kNoKey) break;
      const auto high = static_cast<std::uint64_t>(key >> 64);
      const auto low = static_cast<std::uint64_t>(key);
      const auto t = std::bit_cast<double>(high);
      if (t > params.max_sim_time_us) {
        hit_limit = true;
        break;
      }
      now = t;
      const auto src = static_cast<std::uint32_t>(low & src_mask);
      if (src < k) {
        on_core_seg(src, low >> src_bits);
      } else if (src < k + m) {
        on_coord_tick(src - k);
      } else if (src < sample_source()) {
        on_wake(src - k - m);
      } else {
        on_sample();
      }
    }
    if (!finished && !hit_limit) {
      // The event queue drained with work outstanding: a scheduling
      // deadlock (should be impossible; surfaced loudly for tests).
      throw std::logic_error("simulation deadlocked: event queue empty");
    }

    SimResult result;
    result.total_time_us = now;
    result.hit_time_limit = hit_limit;
    result.timeline = std::move(timeline);
    result.trace = std::move(trace);
    result.trace_truncated = trace_truncated;
    result.core_busy_us.reserve(k);
    result.core_exec_us.reserve(k);
    for (const auto& c : cores) {
      result.core_busy_us.push_back(c.busy_us);
      result.core_exec_us.push_back(c.exec_us);
    }
    for (unsigned pi = 0; pi < m; ++pi) {
      const ProgSt& p = progs[pi];
      ProgramResult r;
      r.name = p.spec.name;
      r.run_times_us = p.run_times;
      const unsigned n =
          std::min<unsigned>(p.spec.target_runs,
                             static_cast<unsigned>(p.run_times.size()));
      if (n > 0) {
        double sum = 0.0;
        for (unsigned i = 0; i < n; ++i) sum += p.run_times[i];
        r.mean_run_time_us = sum / n;  // Eq. 2
      }
      r += p.counts;
      for (CoreId c = 0; c < k; ++c) {
        const WorkerSt& w = workers[widx(pi, c)];
        r += w.counts;
        r.exec_time_us += w.exec_time;
        r.cache_penalty_us += w.cache_penalty;
        r.steal_overhead_us += w.steal_overhead;
        r.migration_us += w.mig_time;
      }
      result.programs.push_back(std::move(r));
    }
    return result;
  }
};

SimEngine::SimEngine(const SimParams& params, std::vector<SimProgramSpec> specs)
    : impl_(std::make_unique<Impl>(params, std::move(specs))) {}

SimEngine::~SimEngine() = default;

SimResult SimEngine::run() { return impl_->run(); }

SimResult simulate_solo(const SimParams& params, const SimProgramSpec& spec) {
  SimEngine engine(params, {spec});
  return engine.run();
}

}  // namespace dws::sim
