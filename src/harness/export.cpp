#include "harness/export.hpp"

#include <fstream>
#include <ostream>

namespace dws::harness {

void write_programs_csv(std::ostream& os, const sim::SimResult& result) {
  // Counter columns come from the shared field lists (core/counters.hpp).
  auto counters = [](const sim::ProgramResult& p, auto&& f) {
    WorkerCounters::for_each(f, p);
    CoordinatorCounters::for_each(f, p);
  };
  os << "name,mean_run_time_us,run_times_us";
  counters(sim::ProgramResult{},
           [&](const char* name, const auto&) { os << ',' << name; });
  os << ",exec_time_us,cache_penalty_us,steal_overhead_us,migration_us\n";
  for (const auto& p : result.programs) {
    os << p.name << ',' << p.mean_run_time_us << ',';
    for (std::size_t i = 0; i < p.run_times_us.size(); ++i) {
      if (i > 0) os << ';';
      os << p.run_times_us[i];
    }
    counters(p, [&](const char*, const auto& v) { os << ',' << v; });
    os << ',' << p.exec_time_us << ',' << p.cache_penalty_us << ','
       << p.steal_overhead_us << ',' << p.migration_us << '\n';
  }
}

void write_timeline_csv(std::ostream& os, const sim::SimResult& result) {
  os << "t_us";
  for (const auto& p : result.programs) os << ",active_" << p.name;
  os << ",free_cores\n";
  for (const auto& s : result.timeline) {
    os << s.t_us;
    for (unsigned a : s.active_workers) os << ',' << a;
    os << ',' << s.free_cores << '\n';
  }
}

void write_cores_csv(std::ostream& os, const sim::SimResult& result) {
  os << "core,busy_us,exec_us\n";
  for (std::size_t c = 0; c < result.core_busy_us.size(); ++c) {
    os << c << ',' << result.core_busy_us[c] << ',' << result.core_exec_us[c]
       << '\n';
  }
}

std::string export_result(const std::string& dir, const std::string& stem,
                          const sim::SimResult& result) {
  const std::string base = dir + "/" + stem;
  struct Job {
    const char* suffix;
    void (*writer)(std::ostream&, const sim::SimResult&);
  };
  for (const Job& job : {Job{"_programs.csv", write_programs_csv},
                         Job{"_timeline.csv", write_timeline_csv},
                         Job{"_cores.csv", write_cores_csv}}) {
    const std::string path = base + job.suffix;
    std::ofstream out(path);
    if (!out) return "cannot open " + path;
    job.writer(out, result);
    if (!out) return "write failed for " + path;
  }
  return {};
}

}  // namespace dws::harness
