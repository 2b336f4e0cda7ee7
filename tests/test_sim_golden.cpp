// Golden simulated outcomes: a fixed set of simulations whose results are
// pinned bit for bit in tests/sim_golden.txt.
//
// The simulator is deterministic per seed, so a change to its host-side
// machinery (event queue, task pools, DAG layout) must leave every
// outcome identical. Integer counters compare exactly; times compare as
// `%a` hex floats, so a single flipped bit fails. The golden may change
// only with a stated change to the simulated model; docs/CHECKING.md has
// the regeneration recipe.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/profiles.hpp"
#include "core/types.hpp"
#include "harness/mixes.hpp"
#include "sim/engine.hpp"

namespace dws::sim {
namespace {

constexpr double kWorkScale = 0.3;
constexpr unsigned kTargetRuns = 3;

/// One parameter set every mix and mode is simulated under.
struct Variant {
  const char* name;
  void (*apply)(SimParams&);
};

constexpr Variant kVariants[] = {
    {"default", [](SimParams&) {}},
    {"adaptive_timeline",
     [](SimParams& p) {
       p.adaptive_t_sleep = true;
       p.timeline_sample_period_us = 2000.0;
     }},
    {"cores8_migration",
     [](SimParams& p) {
       p.num_cores = 8;
       p.steal_tier_migration_us[1] = 0.5;
       p.steal_tier_migration_us[2] = 4.0;
       p.steal_tier_migration_us[3] = 9.0;
     }},
    {"tsleep0_trace",
     [](SimParams& p) {
       p.t_sleep = 0;
       p.collect_trace = true;
       p.trace_capacity = 3000;
     }},
};

constexpr std::pair<unsigned, unsigned> kMixes[] = {{1, 8}, {6, 7}};

constexpr SchedMode kModes[] = {SchedMode::kDws,  SchedMode::kClassic,
                                SchedMode::kAbp,  SchedMode::kEp,
                                SchedMode::kDwsNc, SchedMode::kBws};

struct Case {
  const Variant* variant;
  std::pair<unsigned, unsigned> mix;
  SchedMode mode;

  [[nodiscard]] std::string id() const {
    std::string s = std::string(variant->name) + "_" +
                    std::to_string(mix.first) + "_" +
                    std::to_string(mix.second) + "_" + to_string(mode);
    for (char& ch : s) {
      if (ch == '-') ch = '_';
    }
    return s;
  }
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.id(); }

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const Variant& v : kVariants) {
    for (const auto& mix : kMixes) {
      for (SchedMode mode : kModes) out.push_back({&v, mix, mode});
    }
  }
  return out;
}

std::string hex(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over 64-bit words: fingerprints the per-core, timeline and
/// trace vectors, which are too long to pin field by field.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((v >> (8 * i)) & 0xFFu)) * 0x100000001B3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string str() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// The outcome of one case as golden lines, each prefixed by the case id.
std::vector<std::string> outcome_lines(const Case& c) {
  SimParams params;
  c.variant->apply(params);
  const auto prof_a =
      apps::make_sim_profile(harness::app_name(c.mix.first), kWorkScale);
  const auto prof_b =
      apps::make_sim_profile(harness::app_name(c.mix.second), kWorkScale);
  auto spec = [&](const apps::SimAppProfile& prof) {
    SimProgramSpec s;
    s.name = prof.name;
    s.mode = c.mode;
    s.dag = &prof.dag;
    s.target_runs = kTargetRuns;
    s.default_mem_intensity = prof.mem_intensity;
    return s;
  };
  SimEngine engine(params, {spec(prof_a), spec(prof_b)});
  const SimResult r = engine.run();

  const std::string id = c.id();
  std::vector<std::string> lines;

  Digest cores;
  for (double v : r.core_busy_us) cores.add(v);
  for (double v : r.core_exec_us) cores.add(v);
  Digest timeline;
  for (const TimelineSample& s : r.timeline) {
    timeline.add(s.t_us);
    for (unsigned a : s.active_workers) timeline.add(std::uint64_t{a});
    timeline.add(std::uint64_t{s.free_cores});
  }
  Digest trace;
  for (const TraceEvent& e : r.trace) {
    trace.add(e.t_us);
    trace.add(static_cast<std::uint64_t>(e.kind));
    trace.add(std::uint64_t{e.prog});
    trace.add(std::uint64_t{e.core});
    trace.add(std::uint64_t{e.node});
  }
  std::ostringstream sim;
  sim << id << " sim total=" << hex(r.total_time_us)
      << " limit=" << r.hit_time_limit << " cores=" << cores.str()
      << " timeline=" << r.timeline.size() << ":" << timeline.str()
      << " trace=" << r.trace.size() << ":" << trace.str()
      << " truncated=" << r.trace_truncated;
  lines.push_back(sim.str());

  for (const ProgramResult& p : r.programs) {
    std::ostringstream times;
    times << id << " " << p.name << " runs=";
    for (std::size_t i = 0; i < p.run_times_us.size(); ++i) {
      times << (i ? "," : "") << hex(p.run_times_us[i]);
    }
    times << " mean=" << hex(p.mean_run_time_us)
          << " exec=" << hex(p.exec_time_us)
          << " cache=" << hex(p.cache_penalty_us)
          << " steal=" << hex(p.steal_overhead_us)
          << " migration=" << hex(p.migration_us);
    lines.push_back(times.str());

    std::ostringstream counts;
    counts << id << " " << p.name << " counters";
    auto put = [&](const char* name, const auto& v) {
      counts << " " << name << "=" << v;
    };
    WorkerCounters::for_each(put, static_cast<const WorkerCounters&>(p));
    CoordinatorCounters::for_each(put,
                                  static_cast<const CoordinatorCounters&>(p));
    lines.push_back(counts.str());
  }
  return lines;
}

/// Golden lines grouped by case id (the first word of each line).
std::map<std::string, std::vector<std::string>> load_golden() {
  std::map<std::string, std::vector<std::string>> out;
  std::ifstream in(DWS_SIM_GOLDEN_FILE);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[line.substr(0, line.find(' '))].push_back(line);
  }
  return out;
}

class SimGolden : public ::testing::TestWithParam<Case> {
 protected:
  static void SetUpTestSuite() { golden_ = new auto(load_golden()); }

  /// With DWS_SIM_GOLDEN_OUT set, the lines every case computed are
  /// written there in case order (the regeneration path).
  static void TearDownTestSuite() {
    if (const char* path = std::getenv("DWS_SIM_GOLDEN_OUT")) {
      std::ofstream out(path);
      out << "# Golden simulator outcomes; regenerate only with a stated "
             "model change\n# (docs/CHECKING.md).\n";
      for (const auto& lines : computed_) {
        for (const auto& l : lines) out << l << "\n";
      }
    }
    computed_.clear();
    delete golden_;
    golden_ = nullptr;
  }

  static std::map<std::string, std::vector<std::string>>* golden_;
  static std::vector<std::vector<std::string>> computed_;
};

std::map<std::string, std::vector<std::string>>* SimGolden::golden_ = nullptr;
std::vector<std::vector<std::string>> SimGolden::computed_;

TEST_P(SimGolden, OutcomeMatchesTheGolden) {
  const Case& c = GetParam();
  const std::vector<std::string> actual = outcome_lines(c);
  computed_.push_back(actual);
  const auto it = golden_->find(c.id());
  ASSERT_NE(it, golden_->end())
      << "no golden lines for " << c.id() << " in " << DWS_SIM_GOLDEN_FILE;
  ASSERT_EQ(it->second.size(), actual.size()) << c.id();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(it->second[i], actual[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SimGolden, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) { return info.param.id(); });

}  // namespace
}  // namespace dws::sim
