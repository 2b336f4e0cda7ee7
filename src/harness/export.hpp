// Result export: write SimResult program records and timelines to CSV
// files so external tooling (spreadsheets, matplotlib, pandas) can plot
// the reproduced figures. Every bench binary accepts --out=<dir> and
// routes through these helpers.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/engine.hpp"

namespace dws::harness {

/// One row per program: name, mean run time, per-repetition times joined
/// by ';', every shared counter (WorkerCounters, then CoordinatorCounters)
/// and the simulator's timings.
void write_programs_csv(std::ostream& os, const sim::SimResult& result);

/// One row per timeline sample: t_us, one active-count column per
/// program, free cores. Empty timeline writes only the header.
void write_timeline_csv(std::ostream& os, const sim::SimResult& result);

/// One row per core: busy and productive (exec) microseconds.
void write_cores_csv(std::ostream& os, const sim::SimResult& result);

/// Convenience: create `<dir>/<stem>_{programs,timeline,cores}.csv`.
/// Returns an empty string on success, else an error description. The
/// directory must already exist (benches create it with
/// std::filesystem).
std::string export_result(const std::string& dir, const std::string& stem,
                          const sim::SimResult& result);

}  // namespace dws::harness
