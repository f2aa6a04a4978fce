/**
 * @file
 * Synthetic per-core memory traffic generation.
 *
 * Each generator models one core running a roofline-toolkit style
 * streaming kernel with a configurable standalone bandwidth demand:
 * a token bucket paces line-sized requests at the demanded rate, a
 * bounded number of outstanding requests models the core's memory-level
 * parallelism, and the address stream mixes sequential row-local
 * accesses with random jumps according to a locality knob.
 */

#ifndef PCCS_DRAM_TRAFFIC_HH
#define PCCS_DRAM_TRAFFIC_HH

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/pacing.hh"
#include "dram/port.hh"
#include "dram/request.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

/** Configuration of one synthetic core. */
struct TrafficParams
{
    /** Source id (unique per generator, < Scheduler::maxSources). */
    unsigned source = 0;
    /** Standalone bandwidth demand in GB/s. */
    GBps demand = 10.0;
    /** Probability the next line continues the current sequential run. */
    double rowLocality = 0.97;
    /**
     * Maximum outstanding requests (memory-level parallelism). With
     * ~70-cycle loaded latencies, sustaining the full 102.4 GB/s of
     * the Table 1 system needs roughly 64 outstanding lines.
     */
    unsigned mlp = 64;
    /** Fraction of requests that are writes. */
    double writeFraction = 0.0;
    /** RNG seed for the address stream. */
    std::uint64_t seed = 1;
};

/**
 * A paced, closed-loop traffic generator bound to a memory port
 * (a single controller or a multi-controller router).
 */
class CoreTrafficGenerator
{
  public:
    CoreTrafficGenerator(const TrafficParams &params, MemoryPort &port);

    /**
     * Advance through bus cycle `now`: accrue tokens for every cycle
     * since the last call (token updates are identical capped
     * single-cycle additions whether performed eagerly or in a batch,
     * so reference and event-driven runs see bit-identical buckets),
     * then issue eligible requests.
     * @return true when at least one line was issued.
     */
    bool tick(Cycles now);

    /**
     * Earliest cycle >= now + 1 at which tick() could issue a request,
     * given no completions arrive in between: the bucket's exact line
     * crossing (TokenBucket::crossing). kNoEvent when issue is gated
     * on external progress (MLP limit or queue backpressure), which
     * only clears through controller activity — itself a wake.
     */
    Cycles nextIssueEvent(Cycles now);

    /** The gate that stopped the last tick() from issuing further. */
    SourceGate gate() const
    {
        if (hasPending_)
            return SourceGate::Backpressure;
        if (outstanding_ >= params_.mlp)
            return SourceGate::Mlp;
        return SourceGate::Pacing;
    }

    /** The address a full channel refused (under Backpressure). */
    Addr blockedAddress() const { return pendingAddr_; }

    /** Notify that one of this source's requests completed. */
    void onComplete(const Request &req);

    /** @return lines completed since the last resetMeasurement(). */
    std::uint64_t completedLines() const { return completedLines_; }

    /** @return lines issued since the last resetMeasurement(). */
    std::uint64_t issuedLines() const { return issuedLines_; }

    /** Zero the measurement counters (start of a window). */
    void resetMeasurement();

    /** @return the source id. */
    unsigned source() const { return params_.source; }

    /** First byte of this source's private address slice. */
    Addr regionBase() const { return regionBase_; }

    /**
     * One past the last byte the address stream can touch; with
     * regionBase(), lets a multi-MC router prove a generator's entire
     * footprint lands on a single controller.
     */
    Addr regionEnd() const
    {
        return regionBase_ + regionLines_ * port_.lineBytes();
    }

    /** @return the configured standalone demand in GB/s. */
    GBps demand() const { return params_.demand; }

    /** @return currently outstanding requests. */
    unsigned outstanding() const { return outstanding_; }

    /** Achieved bandwidth over a window of bus cycles, GB/s. */
    GBps achievedBandwidth(Cycles window_cycles) const;

  private:
    Addr nextAddress();

    TrafficParams params_;
    MemoryPort &port_;
    Rng rng_;
    TokenBucket bucket_;
    unsigned outstanding_ = 0;
    std::uint64_t completedLines_ = 0;
    std::uint64_t issuedLines_ = 0;
    /** Linear line cursor within this source's address region. */
    std::uint64_t cursor_ = 0;
    Addr regionBase_;
    std::uint64_t regionLines_;
    /** Address generated but not yet accepted by the controller. */
    Addr pendingAddr_ = 0;
    bool pendingWrite_ = false;
    bool hasPending_ = false;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_TRAFFIC_HH
