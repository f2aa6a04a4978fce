/**
 * @file
 * Top-level DRAM simulation harness: a memory controller plus a set of
 * synthetic core traffic generators, with warmup/measure windows.
 *
 * This is the substrate for the paper's Section 2.3 validation: the
 * registered scheduling policies are run against a 16-core
 * configuration (Table 1) and per-group achieved relative speeds,
 * row-buffer hit rates, and effective bandwidths are extracted
 * (Figure 5, Table 3).
 */

#ifndef PCCS_DRAM_SYSTEM_HH
#define PCCS_DRAM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "dram/controller.hh"
#include "dram/trace_replay.hh"
#include "dram/traffic.hh"

namespace pccs::dram {

/** A complete DRAM subsystem simulation with synthetic cores. */
class DramSystem
{
  public:
    /** @param policy registered scheduler-policy name or alias. */
    DramSystem(const DramConfig &cfg, std::string_view policy,
               const SchedulerParams &sched_params = {});

    /** Add a synthetic core; returns its index. */
    std::size_t addGenerator(const TrafficParams &params);

    /** Add a trace-replay core; returns its index among replays. */
    std::size_t addReplay(const ReplayParams &params,
                          std::vector<TraceEntry> trace);

    /**
     * Advance the simulation by `cycles` bus cycles.
     *
     * Quiet stretches — cycles provably free of completions, command
     * issue, refresh progress, scheduler tick events, and token-bucket
     * issue crossings — are skipped in one jump, and only the traffic
     * sources that can issue are ticked; every simulated state
     * transition, statistic, and RNG draw is bit-identical to the test
     * oracle's per-cycle reference loop (see DESIGN.md §7 and
     * tests/test_dram_equivalence.cc).
     */
    void run(Cycles cycles);

    /** Start a fresh measurement window (zeroes all counters). */
    void resetMeasurement();

    /** @return current simulation cycle. */
    Cycles now() const { return now_; }

    /** @return cycles elapsed since the last resetMeasurement(). */
    Cycles windowCycles() const { return now_ - windowStart_; }

    MemoryController &controller() { return *controller_; }
    const MemoryController &controller() const { return *controller_; }

    CoreTrafficGenerator &generator(std::size_t i)
    {
        return *generators_[i];
    }
    std::size_t numGenerators() const { return generators_.size(); }

    TraceReplayGenerator &replay(std::size_t i) { return *replays_[i]; }
    std::size_t numReplays() const { return replays_.size(); }

    /** Achieved bandwidth of generator i over the current window. */
    GBps achievedBandwidth(std::size_t i) const;

    /** Effective bandwidth fraction of peak over the current window. */
    double effectiveBandwidthFraction() const;

  private:
    friend class DramOracle;

    /**
     * The event-driven state of one kind of traffic source (synthetic
     * or replay), one bit per source index. After each tick a source
     * leaves the armed set and is filed under the gate that stopped
     * it (SourceGate); the gate's event arms it again. A source that
     * is not armed would change nothing if ticked.
     */
    struct SourceGates
    {
        /** Sources to tick at the current cycle. */
        std::uint64_t armed = 0;
        /** Waiting for an own completion (MLP limit). */
        std::uint64_t mlp = 0;
        /** Waiting for wakeAt[i], their bucket's line crossing. */
        std::uint64_t pacing = 0;
        /** Per channel: waiting for a full queue to dequeue. */
        std::vector<std::uint64_t> waiting;
        std::vector<Cycles> wakeAt;
        /** Earliest wakeAt over `pacing` (kNoEvent when empty). */
        Cycles nextWake = kNoEvent;

        /** Add source `i`, armed. */
        void add(std::size_t i);
        /** Source `i` completed a line: arm it if MLP-gated. */
        void release(std::size_t i);
        /**
         * Arm the first waiter on channel `ch` in cycle `now`'s
         * rotation of `n` sources. @return false when there is none.
         */
        bool armFirstWaiter(unsigned ch, Cycles now, std::size_t n);
        /** Arm the pacing-gated sources whose crossing is `now`. */
        void armDue(Cycles now);
    };

    /**
     * Tick the armed sources of one kind at now_, in an issue order
     * rotated by now_, and file each under its gate.
     * @return true when any of them issued.
     */
    template <class Source>
    bool tickArmed(std::vector<std::unique_ptr<Source>> &sources,
                   SourceGates &gates);
    /** Arm the first waiter of every channel that has room again. */
    void armWaiters();

    std::unique_ptr<MemoryController> controller_;
    std::vector<std::unique_ptr<CoreTrafficGenerator>> generators_;
    std::vector<std::unique_ptr<TraceReplayGenerator>> replays_;
    /** Per-source-id index into generators_ / replays_ (-1: none). */
    std::vector<int> generatorOf_;
    std::vector<int> replayOf_;
    SourceGates generatorGates_;
    SourceGates replayGates_;
    Cycles now_ = 0;
    Cycles windowStart_ = 0;
};

/**
 * Measure a kernel's standalone-vs-corun relative speed with a given
 * policy: convenience wrapper used by tests and benches.
 */
struct RelativeSpeedResult
{
    double relativeSpeed = 0.0;  //!< corun speed / standalone speed, in %
    GBps standaloneBandwidth = 0.0;
    GBps corunBandwidth = 0.0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_SYSTEM_HH
