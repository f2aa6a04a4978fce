/**
 * @file
 * Order statistics and the rate-ladder search of the benchmark.
 *
 * Every reported figure is one of these over many samples: a median of
 * repeated measurements, or a percentile of per-request latencies. The
 * helpers are deterministic and small enough to test exhaustively
 * (selftest.cc).
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace perfbench {

/** Median of `v` (mean of the middle pair for even sizes); 0 if empty. */
double median(std::vector<double> v);

/**
 * Nearest-rank percentile: the smallest sample with at least `p`
 * percent of the samples at or below it. `p` in [0, 100]; 0 if empty.
 */
double percentile(std::vector<double> v, double p);

/**
 * Binary search of a fixed, ascending rate ladder for its highest step
 * that meets the limit. `meets(i)` runs step i and reports whether it
 * met the limit; it is called at most once per step, step 0 first, and
 * never for a step above one that failed.
 *
 * @return index of the highest step found to meet the limit, or -1
 *         when step 0 already fails
 */
int searchLadder(std::size_t steps,
                 const std::function<bool(std::size_t)> &meets);

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
