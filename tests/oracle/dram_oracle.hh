/**
 * @file
 * The per-cycle reference DRAM simulator: the oracle every DRAM
 * equivalence test compares the production event-driven core against.
 *
 * The library has one scheduling path — each controller evaluates a
 * channel only when its cached wake bound says something can happen,
 * and then asks the policy's fastPick() over bank-granular masks. The
 * oracle keeps the original, independent formulation: every bus cycle
 * it ticks every controller, builds each non-empty channel's
 * materialized QueueEntryView list, and asks the policy's pick() — the
 * executable specification — for the decision. Command issue itself
 * (MemoryController::issueCommand) is shared, so the two differ exactly
 * in *when* a decision is evaluated and *how* it is made.
 *
 * The oracle reaches controller and system internals through the one
 * `friend class DramOracle` each of MemoryController, DramSystem, and
 * MultiMcSystem declares; the library has no mode flag for it. It
 * ticks every traffic source and the scheduler every cycle in its own
 * loop, and neither reads nor maintains the production loop's caches
 * (the controllers' lazy-scan wake bounds and scheduler-tick deadline,
 * DramSystem's armed source set), so a system it has advanced is not
 * handed back to run().
 */

#ifndef PCCS_TESTS_ORACLE_DRAM_ORACLE_HH
#define PCCS_TESTS_ORACLE_DRAM_ORACLE_HH

#include "dram/multi_mc.hh"
#include "dram/system.hh"

namespace pccs::dram {

class DramOracle
{
  public:
    /**
     * Advance `sys` by `cycles` bus cycles with the per-cycle
     * reference loop: controller, then every traffic source in the
     * rotated order, every cycle — its own loop, independent of the
     * production armed set.
     */
    static void runReference(DramSystem &sys, Cycles cycles);

    /**
     * Advance `sys` by `cycles` bus cycles with the lockstep loop:
     * every controller in index order, then the rotated generators,
     * every cycle.
     */
    static void runLockstep(MultiMcSystem &sys, Cycles cycles);

    /**
     * One reference cycle of `mc`: scheduler tick, completion drain,
     * and refresh progress or a pick() decision on every channel with
     * queued requests.
     * @return true when anything happened.
     */
    static bool tick(MemoryController &mc, Cycles now);

  private:
    /** Tick every source of `sys` at `now`, rotated by `now`. */
    static void tickSources(DramSystem &sys, Cycles now);
    static bool scheduleChannel(MemoryController &mc, unsigned ch,
                                Cycles now);
};

} // namespace pccs::dram

#endif // PCCS_TESTS_ORACLE_DRAM_ORACLE_HH
