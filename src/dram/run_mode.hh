/**
 * @file
 * Selection between the multi-MC run loops.
 *
 * Every DRAM simulation advances through one event-driven core: it
 * computes the next "interesting" cycle (inflight completion, refresh
 * deadline, bank/bus/rank timing expiry, scheduler quantum,
 * token-bucket accrual) and jumps straight to it. The per-cycle
 * reference loops it is proven bit-exact against live in the test
 * oracle (tests/oracle/dram_oracle.hh), not in the library.
 */

#ifndef PCCS_DRAM_RUN_MODE_HH
#define PCCS_DRAM_RUN_MODE_HH

namespace pccs::dram {

/**
 * Which run loop MultiMcSystem::run uses (the Section 5 extension).
 * Both are bit-exact against each other and against the test oracle's
 * lockstep loop (tests/test_multimc_equivalence.cc); they differ only
 * in how the per-cycle work is scheduled:
 *
 *  - EventDriven: one thread, per-MC nextEventCycle/nextIssueEvent
 *    bounds fused into a single min-scan, so stretches on which every
 *    controller and generator is provably quiet are skipped in one
 *    jump (idle channels cost nothing);
 *  - Sharded: EventDriven semantics with the controllers spread over
 *    worker threads. RangePartitioned mappings whose sources each
 *    live in a single controller's slice decompose into fully
 *    independent shards (epoch = the whole run, no barriers);
 *    LineInterleaved (and straddling partitioned) workloads share
 *    generator state across MCs with a one-cycle interaction latency,
 *    so controllers run in parallel within each cycle between epoch
 *    barriers (epoch = 1 cycle, the synchronization granularity).
 */
enum class McRunMode
{
    EventDriven, //!< fused next-event min-scan over controllers
    Sharded,     //!< opt-in parallel shards (PCCS_MC_SHARDS/--mc-parallel)
};

/** @return display name of a multi-MC run mode. */
const char *mcRunModeName(McRunMode mode);

/**
 * Process-wide default mode for newly constructed MultiMcSystems:
 * EventDriven, unless PCCS_MC_SHARDS selects Sharded. Overridable with
 * setDefaultMcRunMode() (e.g., from --mc-parallel).
 */
McRunMode defaultMcRunMode();

/** Override the process-wide default multi-MC run mode. */
void setDefaultMcRunMode(McRunMode mode);

/**
 * Worker-thread cap for sharded multi-MC runs: the value of
 * PCCS_MC_SHARDS, or 0 (= size to min(controllers, hardware threads))
 * when the variable is unset or 0.
 */
unsigned mcShardWorkers();

} // namespace pccs::dram

#endif // PCCS_DRAM_RUN_MODE_HH
