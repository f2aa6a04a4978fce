/**
 * @file
 * The benchmark's workloads (README.md gives each one's purpose).
 *
 *  - dram-paper:    Fig. 5's grid for every registered policy on the
 *                   DRAM simulator, fitted and scored on held-out
 *                   points, plus a multi-MC calibration and the run
 *                   artifact;
 *  - serve-predict: open-loop fixed-rate predict frames against an
 *                   in-process server;
 *  - serve-mixed:   the same server under a lower-rate mix of reads
 *                   and writes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>

#include "report.hh"

namespace perfbench {

/** Settings shared by every workload. */
struct RunOptions
{
    std::uint64_t seed = 1;
    /** Length of the measured part of the run. */
    double seconds = 10.0;
    /** Scratch directory for files the run writes (removed after). */
    std::string workdir;
};

void runDramPaper(const RunOptions &opts, Report &report);

/** @param mixed false = serve-predict, true = serve-mixed */
void runServe(const RunOptions &opts, bool mixed, Report &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
