/**
 * @file
 * Issue pacing shared by the traffic sources: the token bucket that
 * meters a source's lines, with the exact forward crossing the
 * event-driven loops wake on, and the gate a source reports after a
 * tick so a loop knows which event can let it issue again.
 */

#ifndef PCCS_DRAM_PACING_HH
#define PCCS_DRAM_PACING_HH

#include "common/units.hh"
#include "dram/port.hh"

namespace pccs::dram {

/**
 * A token bucket refilled by one capped addition per bus cycle.
 *
 * The additions are never replaced by a closed form: the float state
 * must be bit-identical however the cycles are batched (per cycle in
 * the test oracle, in jumps in the event-driven loops). The cap is
 * absorbing, so a full bucket stops the additions early.
 */
class TokenBucket
{
  public:
    /**
     * Longest forward run crossing() makes in one call, cycles. A
     * crossing further away is planned in several steps: the source
     * wakes at the horizon, changes nothing, and plans again.
     */
    static constexpr Cycles kHorizon = 4096;

    /**
     * @param rate tokens (bytes) accrued per bus cycle
     * @param cap bucket capacity, bytes
     */
    TokenBucket(double rate, double cap) : rate_(rate), cap_(cap) {}

    /**
     * The bucket of a source demanding `demand` GB/s through `port`:
     * one cycle's worth of demand per cycle, capped at 8 lines.
     */
    static TokenBucket forDemand(GBps demand, const MemoryPort &port)
    {
        return {demand * bytesPerGB * port.cycleSeconds(),
                8.0 * port.lineBytes()};
    }

    /** Accrue one capped addition for every cycle through `now`. */
    void accrueThrough(Cycles now);

    /** @return the tokens held (accrued through accruedUntil() - 1). */
    double tokens() const { return tokens_; }

    /** Every cycle < accruedUntil() has been accrued. */
    Cycles accruedUntil() const { return through_; }

    /** Spend `amount` tokens (the caller checked tokens() >= amount). */
    void take(double amount);

    /**
     * The earliest cycle c at which accrueThrough(c) leaves at least
     * `amount` tokens, found by running the same capped additions
     * forward from the last accrued cycle (accruedUntil() - 1, not the
     * caller's now). When the crossing lies more than kHorizon cycles
     * ahead, the horizon cycle is returned instead. The run is kept,
     * so the accrueThrough() that reaches it resumes from its result
     * instead of replaying the additions. Requires tokens() < amount.
     */
    Cycles crossing(double amount);

    /**
     * Earliest cycle >= now + 1 at which a tick could spend `amount`:
     * now + 1 when the bucket already holds it, else the crossing.
     */
    Cycles nextIssueCycle(double amount, Cycles now);

  private:
    double tokens_ = 0.0;
    double rate_;
    double cap_;
    /** Tokens are accrued for every cycle < through_. */
    Cycles through_ = 0;
    /**
     * The last forward run: the bucket holds planTokens_ once every
     * cycle < planThrough_ is accrued. Valid while planThrough_ >
     * through_; take() drops it.
     */
    Cycles planThrough_ = 0;
    double planTokens_ = 0.0;
};

/** Why a traffic source's last tick() stopped issuing. */
enum class SourceGate
{
    /** The bucket holds less than a line: wait for the crossing. */
    Pacing,
    /** Every MLP slot is outstanding: wait for an own completion. */
    Mlp,
    /**
     * The channel of the source's pending address refused it: wait
     * for that channel to dequeue.
     */
    Backpressure,
    /** A non-looping trace is fully issued: never issues again. */
    Exhausted,
};

} // namespace pccs::dram

#endif // PCCS_DRAM_PACING_HH
