// A/B statistics shared by the guardrail benches (bench_spawn,
// bench_false_sharing, bench_locality, bench_deadlock_overhead): each
// times a base leg A against a new leg B in alternating reps and gates
//   mean_B <= mean_A * (1 + 3*cv + tolerance),   cv = max leg cv.
// Per-bench keys, stdout lines and extra gates stay in each main.
#pragma once

#include <algorithm>
#include <ostream>

#include "util/stats.hpp"

namespace dws::bench {

/// Coefficient of variation (0 for a zero-mean sample).
inline double cv(const util::Samples& s) {
  return s.mean() > 0.0 ? s.stddev() / s.mean() : 0.0;
}

/// Writes `    "key": {"mean": .., "stddev": .., "cv": .., "n": ..}`.
inline void json_stats(std::ostream& os, const char* key,
                       const util::Samples& s) {
  os << "    \"" << key << "\": {\"mean\": " << s.mean()
     << ", \"stddev\": " << s.stddev() << ", \"cv\": " << cv(s)
     << ", \"n\": " << s.count() << "}";
}

/// The allowed mean_B / mean_A ratio: 1 + 3*max(cv_A, cv_B) + tolerance.
inline double ab_bound(const util::Samples& a, const util::Samples& b,
                       double tolerance) {
  return 1.0 + 3.0 * std::max(cv(a), cv(b)) + tolerance;
}

/// `pairs` unrecorded reps of A then B (cold caches, thread ramp-up,
/// allocator warm-up).
template <typename RepA, typename RepB>
void warm_up(int pairs, RepA&& a, RepB&& b) {
  for (int r = 0; r < pairs; ++r) {
    a();
    b();
  }
}

/// `pairs` recorded reps alternating A, B, A, B, ... so clock drift and
/// thermal state land on both legs equally; `record(a(), b())` per pair.
template <typename RepA, typename RepB, typename Record>
void alternate(int pairs, RepA&& a, RepB&& b, Record&& record) {
  for (int r = 0; r < pairs; ++r) {
    const auto ra = a();
    const auto rb = b();
    record(ra, rb);
  }
}

}  // namespace dws::bench
