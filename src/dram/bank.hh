/**
 * @file
 * Per-bank and per-channel DRAM timing state machines.
 *
 * Each bank tracks its open row and the earliest cycles at which the
 * next ACT / READ / WRITE / PRE command may legally issue. The channel
 * additionally tracks data-bus occupancy, the one-command-per-cycle
 * command slot, the rank-level four-activate window (tFAW) and the
 * ACT-to-ACT spacing (tRRD).
 */

#ifndef PCCS_DRAM_BANK_HH
#define PCCS_DRAM_BANK_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "dram/timing.hh"

namespace pccs::dram {

/** Row-buffer state machine of a single DRAM bank. */
class Bank
{
  public:
    static constexpr std::int64_t noRow = -1;

    /** @return the open row index, or noRow when precharged. */
    std::int64_t openRow() const { return openRow_; }

    /** @return true when an ACT may issue at cycle now. */
    bool canActivate(Cycles now) const
    {
        return openRow_ == noRow && now >= nextAct_;
    }

    /** @return true when a PRE may issue at cycle now. */
    bool canPrecharge(Cycles now) const
    {
        return openRow_ != noRow && now >= nextPre_;
    }

    /** @return true when a CAS to `row` may issue at cycle now. */
    bool canAccess(Cycles now, std::uint32_t row) const
    {
        return openRow_ == static_cast<std::int64_t>(row) &&
               now >= nextCas_;
    }

    /**
     * Earliest-legality accessors for the event-driven core: with the
     * bank state frozen (no commands issued in between), canActivate /
     * canPrecharge / canAccess first become true exactly at these
     * cycles. They say nothing about the open-row precondition — the
     * caller pairs them with openRow().
     */
    Cycles nextActivateAt() const { return nextAct_; }
    Cycles nextPrechargeAt() const { return nextPre_; }
    Cycles nextAccessAt() const { return nextCas_; }

    /** Issue ACT(row) at cycle now; caller checked legality. */
    void activate(Cycles now, std::uint32_t row, const DramTimingParams &t);

    /** Issue PRE at cycle now; caller checked legality. */
    void precharge(Cycles now, const DramTimingParams &t);

    /**
     * Issue a CAS at cycle now; caller checked legality.
     * @param is_write write CAS (affects the precharge constraint)
     * @return the cycle at which the data burst completes
     */
    Cycles access(Cycles now, bool is_write, const DramTimingParams &t);

  private:
    std::int64_t openRow_ = noRow;
    Cycles nextAct_ = 0;
    Cycles nextCas_ = 0;
    Cycles nextPre_ = 0;
};

/** Shared timing state of one channel (banks + bus + rank windows). */
class ChannelTiming
{
  public:
    ChannelTiming(unsigned banks, const DramTimingParams &timing);

    Bank &bank(unsigned i) { return banks_[i]; }
    const Bank &bank(unsigned i) const { return banks_[i]; }
    unsigned numBanks() const { return static_cast<unsigned>(banks_.size()); }

    /**
     * Bank-state transitions, mask-maintaining: these wrap the Bank
     * mutators and keep openRowMask() in sync, so "which banks hold an
     * open row?" is one word instead of a bank scan. All command issue
     * goes through them (the raw Bank mutators stay for unit tests).
     */
    void activateBank(unsigned b, Cycles now, std::uint32_t row);
    void prechargeBank(unsigned b, Cycles now);
    /** @return the cycle the data burst completes. */
    Cycles accessBank(unsigned b, Cycles now, bool is_write);

    /** Banks currently holding an open row, one bit per bank. */
    std::uint64_t openRowMask() const { return openRowMask_; }

    /**
     * Lowest-indexed bank with an open row (the bank whose PRE gates
     * refresh drain), or -1 when every bank is precharged.
     */
    int firstOpenBank() const;

    /** @return true when the rank-level ACT constraints allow an ACT. */
    bool canActivateRank(Cycles now) const;

    /**
     * Earliest cycle at which canActivateRank() becomes true, assuming
     * no further ACTs are recorded in between (monotone thereafter).
     * Inline: the controller asks on every channel evaluation.
     */
    Cycles rankActivateReadyAt() const
    {
        Cycles ready = nextActRank_;
        if (actWindowFull_)
            ready = std::max(ready, actWindow_[actNext_] + timing_.tFAW);
        return ready;
    }

    /** Record an ACT at cycle now (updates tFAW window and tRRD). */
    void recordActivate(Cycles now);

    /**
     * @return true if a CAS issued at `now` can use the data bus
     * (burst starts at now + tCL and the bus is free by then); reads
     * additionally respect the write-to-read turnaround (tWTR) after
     * the last write burst.
     */
    bool busAvailable(Cycles now, bool is_write = false) const;

    /**
     * Earliest cycle at which busAvailable(cycle, is_write) becomes
     * true, assuming no bus reservations in between. Never later for a
     * write than for a read. Inline: the controller asks on every
     * channel evaluation.
     */
    Cycles busReadyAt(bool is_write = false) const
    {
        // busAvailable(c): busFreeAt_ <= c + tCL, and reads additionally
        // c >= readAllowedAt_.
        Cycles ready =
            busFreeAt_ > timing_.tCL ? busFreeAt_ - timing_.tCL : 0;
        if (!is_write)
            ready = std::max(ready, readAllowedAt_);
        return ready;
    }

    /** Reserve the data bus for a CAS issued at cycle now. */
    void reserveBus(Cycles now, bool is_write = false);

    /** @return cycle after which the data bus is free. */
    Cycles busFreeAt() const { return busFreeAt_; }

    /** @return true if the command slot is free at cycle now. */
    bool commandSlotFree(Cycles now) const { return lastCmd_ != now + 1; }

    /** Consume the command slot for cycle now. */
    void useCommandSlot(Cycles now) { lastCmd_ = now + 1; }

  private:
    const DramTimingParams &timing_;
    std::vector<Bank> banks_;
    /** Banks with an open row (maintained by the *Bank wrappers). */
    std::uint64_t openRowMask_ = 0;
    /**
     * The tFAW window: the last four ACT cycles as a ring. Once full,
     * actWindow_[actNext_] is the oldest — the slot the next ACT
     * overwrites.
     */
    std::array<Cycles, 4> actWindow_{};
    unsigned actNext_ = 0;
    bool actWindowFull_ = false;
    Cycles nextActRank_ = 0;
    Cycles busFreeAt_ = 0;
    Cycles readAllowedAt_ = 0; // tWTR after the last write burst
    Cycles lastCmd_ = 0; // stores now+1 of the cycle the slot was used
};

} // namespace pccs::dram

#endif // PCCS_DRAM_BANK_HH
